// Tests for the paper's design equations (1)-(8), including the exact
// numeric anchors quoted in the text.
#include <gtest/gtest.h>

#include <cmath>

#include "core/design_equations.h"
#include "numeric/units.h"

namespace {

using namespace msim::core;

TEST(Eq2, PaperNoiseBudgetIs5p1nV) {
  // Paper Sec. 3.1: Vmod=0.6 Vrms, Gmic=100, BW=3.1 kHz, S/N=86.5 dB
  // -> 5.1 nV/sqrt(Hz).
  const double v = eq2_noise_budget(0.6, 100.0, 3100.0, 86.5);
  EXPECT_NEAR(v, 5.1e-9, 0.05e-9);
}

TEST(Eq1, BiasMinSupplyMatchesPaperExampleScale) {
  // With Vth=0.7, Vbe=0.75 (cold), Ib=10 uA and uCox*W/L = 2 mA/V^2 the
  // headroom term is 2*sqrt(2*10u/2m) = 0.2 V -> ~1.65 V minimum.
  const double v = eq1_bias_min_supply(0.7, 0.75, 10e-6, 2e-3);
  EXPECT_NEAR(v, 0.7 + 0.75 + 0.2, 1e-3);
  // Supply spec of 2.6 V leaves margin over the whole temperature range.
  EXPECT_LT(v, 2.6);
}

TEST(Eq1, MonotonicInBiasCurrent) {
  double prev = 0.0;
  for (double ib = 1e-6; ib < 1e-3; ib *= 2.0) {
    const double v = eq1_bias_min_supply(0.7, 0.7, ib, 1e-3);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(ResistorNoise, OneKOhmIsFourNvAtRoomTemp) {
  // Paper Sec. 3.1: "a simple 1 kOhm resistor produces approx
  // 4 nV/sqrt(Hz) thermal noise voltage at 25 C".
  const double d =
      resistor_noise_density(msim::num::celsius_to_kelvin(25.0), 1e3);
  EXPECT_NEAR(d, 4.06e-9, 0.1e-9);
}

TEST(Eq4, ReducesToResistorNoiseWhenAmpIsIdeal) {
  // With Req = Ron = 0 the output noise is the amplified network noise.
  const double t = 300.0;
  const double acl = 100.0, ra = 100.0, rf = 10e3;
  const double e2 = eq4_closed_loop_noise(t, acl, ra, rf, 0.0, 0.0);
  const double r_par = ra * rf / (ra + rf);
  EXPECT_NEAR(e2, 2.0 * msim::num::kBoltzmann * t * acl * acl * r_par,
              1e-25);
}

TEST(Eq4, InputReferredGrowsAtLowGain) {
  // Paper Sec. 3.2: the resistive network contributes *non-constant*
  // noise with gain setting; at low closed-loop gain the (1+A)/A factor
  // makes the input-referred amplifier term bigger.
  const double t = 300.0;
  const double req = 500.0, ron = 200.0;
  // 40 dB: Ra=100, Rf=10k.  10 dB: Ra=1k(ish), Rf=3.16k.
  const double hi =
      eq4_input_referred_density(t, 100.0, 100.0, 10e3, req, ron);
  const double lo =
      eq4_input_referred_density(t, 3.162, 1000.0, 3162.0, req, ron);
  EXPECT_GT(lo, hi);
}

TEST(Eq5, SwitchNoiseMatchesRonFormula) {
  const double t = 300.0;
  const double wl = 50.0, ucox = 80e-6, veff = 1.0;
  const double ron = eq5_switch_ron(wl, ucox, veff);
  EXPECT_NEAR(ron, 125.0, 1e-9);
  EXPECT_NEAR(eq5_switch_noise(t, wl, ucox, veff),
              4.0 * msim::num::kBoltzmann * t * ron, 1e-28);
}

TEST(Eq6Eq7, ComplementaryInputCoversRailToRail) {
  // Complementary pairs: the N pair covers up to Va (near Vdd), the P
  // pair down to Vb (near Vss); together they must overlap for
  // rail-to-rail input (Table 2: Vin,max = rail-to-rail).
  const double vdd = 1.3, vss = -1.3;  // +-1.3 V around analog ground
  const double ib = 20e-6;
  const double kp_wl = 1.0e-3;
  const double va = eq6_input_range_high(vdd, ib, kp_wl, 0.85, 0.65);
  const double vb = eq7_input_range_low(vss, ib, kp_wl, 0.85, 0.65);
  EXPECT_GT(va, 0.0);   // N pair works above mid
  EXPECT_LT(vb, 0.0);   // P pair works below mid
  EXPECT_GT(va, vb);    // and the ranges overlap
}

TEST(Eq3, TailNoiseIsImbalanceTimesCurrentNoiseOverGmSquared) {
  // 2 % imbalance, 1e-22 A^2/Hz tail noise, gm = 1 mS:
  // 0.02 * 1e-22 / (1e-3)^2 = 2e-18 V^2/Hz.
  EXPECT_NEAR(eq3_tail_noise(0.02, 1e-22, 1e-3), 2e-18, 1e-30);
  // A balanced pair (A = 0) rejects the tail noise entirely.
  EXPECT_EQ(eq3_tail_noise(0.0, 1e-22, 1e-3), 0.0);
}

TEST(Eq8, LowSwingMirrorsHighSwing) {
  for (double v : {0.9, 1.3, 2.5})
    for (double i : {1e-3, 35e-3})
      for (double beta : {0.05, 0.2, 1.0})
        EXPECT_EQ(eq8_swing_low(-v, i, beta), -eq8_swing_high(v, i, beta))
            << v << " " << i << " " << beta;
}

TEST(Eq8, SwingApproachesRailsWithWideDevices) {
  const double vdd = 1.3;
  // 30 mW into 50 ohm needs ~35 mA peaks; beta = 0.2 A/V^2 keeps the
  // drop sqrt(I/beta) ~ 0.42 V.
  const double hi = eq8_swing_high(vdd, 35e-3, 0.2);
  EXPECT_NEAR(hi, vdd - std::sqrt(35e-3 / 0.2), 1e-12);
  // Wider device -> closer to the rail (paper: 200 mV from both rails).
  EXPECT_GT(eq8_swing_high(vdd, 35e-3, 1.0), hi);
}

TEST(MosNoise, ThermalFallsWithGm) {
  EXPECT_GT(mos_thermal_density(300.0, 1e-3),
            mos_thermal_density(300.0, 10e-3));
}

TEST(MosNoise, FlickerFallsWithArea) {
  const double f = 1e3;
  EXPECT_GT(mos_flicker_psd(1e-25, 1.4e-3, 100e-6, 2e-6, f),
            mos_flicker_psd(1e-25, 1.4e-3, 1000e-6, 2e-6, f));
}

TEST(MosNoise, FlickerIsOneOverF) {
  const double a = mos_flicker_psd(1e-25, 1.4e-3, 100e-6, 2e-6, 100.0);
  const double b = mos_flicker_psd(1e-25, 1.4e-3, 100e-6, 2e-6, 1000.0);
  EXPECT_NEAR(a / b, 10.0, 1e-9);
}

}  // namespace
