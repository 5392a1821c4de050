// Cross-validation: independent analyses must agree with each other
// (AC vs transient, noise vs equation).
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/ac.h"
#include "analysis/noise.h"
#include "analysis/op.h"
#include "analysis/transient.h"
#include "circuit/netlist.h"
#include "core/characterize.h"
#include "core/mic_amp.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "signal/meter.h"

namespace {

using namespace msim;

TEST(CrossValidation, AcGainMatchesTransientAmplitude) {
  // For the transistor mic amp, the AC small-signal gain and the
  // transient fundamental must agree to well under a percent.
  ckt::Netlist nl;
  auto p = core::build_mic_into(nl);
  auto& mic = p.mic;
  mic.set_gain_code(3);  // 28 dB
  ASSERT_TRUE(an::solve_op(nl).converged);
  const auto ac = an::run_ac(nl, {1e3});
  const double g_ac = std::abs(ac.vdiff(0, mic.outp, mic.outn));

  p.vinp->set_waveform(dev::Waveform::sine(0.0, 0.5e-3, 1e3));
  p.vinn->set_waveform(dev::Waveform::sine(0.0, -0.5e-3, 1e3));
  an::TranOptions t;
  t.t_stop = 4e-3;
  t.dt = 2e-6;
  t.record_after = 1e-3;
  const auto res = an::run_transient(nl, t);
  ASSERT_TRUE(res.ok);
  const auto h = sig::measure_harmonics(
      res.diff_wave(mic.outp, mic.outn), t.dt, 1e3);
  const double g_tran = h.fundamental_amp / 1e-3;
  EXPECT_NEAR(g_tran / g_ac, 1.0, 0.005);
}

TEST(CrossValidation, NoiseFloorMatchesGmFormula) {
  // The mic amp's high-frequency input-referred floor must track the
  // hand formula 4kT*gamma/gm summed over the four input devices plus
  // load and network terms, within 15 %.
  ckt::Netlist nl;
  auto mic = core::build_mic_into(nl).mic;
  mic.set_gain_code(5);
  ASSERT_TRUE(an::solve_op(nl).converged);

  const auto* m1 = mic.input_devices[0];
  const auto* ml = nl.find_as<dev::Mosfet>("mic.ML1");
  ASSERT_NE(ml, nullptr);
  const double kT4 = 4.0 * 1.380649e-23 * 300.15;
  const double gm_in = m1->op().gm;
  const double gm_l = ml->op().gm;
  const double hand =
      4.0 * kT4 * (2.0 / 3.0) / gm_in +                    // 4 inputs
      2.0 * kT4 * (2.0 / 3.0) * gm_l / (gm_in * gm_in) +   // 2 loads
      2.0 * kT4 * (99.0 + 80.0);                            // Ra + Ron
  an::NoiseOptions opt;
  opt.out_p = mic.outp;
  opt.out_n = mic.outn;
  opt.input_source = "Vinp";
  const auto res = an::run_noise(nl, {200e3}, opt);
  EXPECT_NEAR(res.points[0].s_in / hand, 1.0, 0.15);
}

}  // namespace
