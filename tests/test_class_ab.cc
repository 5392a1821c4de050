// Class-AB driver (Fig. 8/9, Table 2) tests: OP, quiescent-current
// control, rail-to-rail input, distortion vs swing, slew rate, PSRR,
// and the crossover behaviour of the AB output stage.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "analysis/ac.h"
#include "analysis/op.h"
#include "analysis/sweep.h"
#include "analysis/transient.h"
#include "bench_util.h"
#include "circuit/netlist.h"
#include "core/class_ab_driver.h"
#include "core/design_equations.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "signal/meter.h"

namespace {

using namespace msim;

// Driver in the Fig. 9 inverting-amplifier connection, 50 ohm load.
using bench::make_drv_rig;

TEST(ClassAb, QuiescentPointMatchesTable2) {
  auto r = make_drv_rig();
  const auto op = an::solve_op(r->nl);
  ASSERT_TRUE(op.converged) << op.method;
  EXPECT_NEAR(op.v(r->drv.outp), 0.0, 0.05);
  EXPECT_NEAR(op.v(r->drv.outn), 0.0, 0.05);
  // Table 2: I_Q = 3.25 +- 0.5 mA.
  const double iq = r->drv.supply_probe->current(op.x);
  EXPECT_GT(iq, 2.75e-3);
  EXPECT_LT(iq, 3.75e-3);
}

TEST(ClassAb, TranslinearLoopSetsOutputQuiescent) {
  // The replica control targets I_Q(out leg) = rep_ratio * i_ref.
  core::DriverDesign d;
  auto r = make_drv_rig(2.6, d);
  const auto op = an::solve_op(r->nl);
  ASSERT_TRUE(op.converged);
  const double iq_leg = r->drv.out_probe_p->current(op.x);
  const double target = d.rep_ratio_n * d.i_ref;
  EXPECT_NEAR(iq_leg, target, target * 0.25);
}

TEST(ClassAb, QuiescentCurrentHoldsOverSupply) {
  // Paper Sec. 4: total supply-current variation ~15 % over 2.8 - 5 V.
  auto r = make_drv_rig();
  an::OpOptions opt;
  std::vector<double> iqs;
  const auto sweep = an::dc_sweep(
      r->nl, {2.8, 3.2, 3.6, 4.0, 4.5, 5.0},
      [&](double v) {
        r->vdd_src->set_waveform(dev::Waveform::dc(v / 2.0));
        r->vss_src->set_waveform(dev::Waveform::dc(-v / 2.0));
      },
      opt);
  for (const auto& pt : sweep) {
    ASSERT_TRUE(pt.op.converged) << "Vsup=" << pt.value;
    iqs.push_back(r->drv.supply_probe->current(pt.op.x));
  }
  const double i_min = *std::min_element(iqs.begin(), iqs.end());
  const double i_max = *std::max_element(iqs.begin(), iqs.end());
  EXPECT_LT((i_max - i_min) / i_min, 0.15);
}

TEST(ClassAb, DistortionAtFullSwingBeatsSpec) {
  // 4 Vpp differential into 50 ohm at 2.6 V with HD <= 0.6 %.
  auto r = make_drv_rig();
  r->vsp->set_waveform(dev::Waveform::sine(0.0, 1.0, 1e3));
  r->vsn->set_waveform(dev::Waveform::sine(0.0, -1.0, 1e3));
  an::TranOptions t;
  t.t_stop = 4e-3;
  t.dt = 1e-6;
  t.record_after = 1e-3;
  const auto res = an::run_transient(r->nl, t);
  ASSERT_TRUE(res.ok);
  auto w = res.diff_wave(r->drv.outp, r->drv.outn);
  if (w.size() > 3000) w.resize(3000);  // three whole periods
  const auto h = sig::measure_harmonics(w, t.dt, 1e3);
  EXPECT_NEAR(h.fundamental_amp, 2.0, 0.1);  // 4 Vpp differential
  EXPECT_LT(h.thd, 0.006);
}

TEST(ClassAb, DistortionRisesTowardTheRails) {
  // Eq. (8): past Vdd - sqrt(I/beta) the output devices leave
  // saturation and HD shoots up.
  auto thd_at = [&](double vp) {
    auto r = make_drv_rig(2.6);
    r->vsp->set_waveform(dev::Waveform::sine(0.0, vp, 1e3));
    r->vsn->set_waveform(dev::Waveform::sine(0.0, -vp, 1e3));
    an::TranOptions t;
    t.t_stop = 4e-3;
    t.dt = 1e-6;
    t.record_after = 1e-3;
    const auto res = an::run_transient(r->nl, t);
    EXPECT_TRUE(res.ok);
    auto w = res.diff_wave(r->drv.outp, r->drv.outn);
    if (w.size() > 3000) w.resize(3000);  // three whole periods
    return sig::measure_harmonics(w, t.dt, 1e3).thd;
  };
  EXPECT_GT(thd_at(1.25), 3.0 * thd_at(1.0));
}

TEST(ClassAb, SlewRateMeetsTable2) {
  // Table 2: SR = 2.5 V/us with Vin = +-1 V step.
  auto r = make_drv_rig(3.0);
  // Max dv/dt on the rising edge, in V/us.
  EXPECT_GT(core::drv_slew_v_per_us(r->nl, *r), 2.5);
}

TEST(ClassAb, InputRangeIsRailToRail) {
  // Table 2: Vin,max rail-to-rail.  As a unity buffer the input CM
  // equals the output CM; sweep the source from near vss to near vdd
  // and require the closed loop to track.
  auto r = make_drv_rig(3.0);
  an::OpOptions opt;
  std::vector<double> cms;
  for (double v = -1.2; v <= 1.2001; v += 0.3) cms.push_back(v);
  const auto sweep = an::dc_sweep(
      r->nl, cms,
      [&](double v) {
        // Common-mode drive through the inverting network: both sides
        // same polarity moves the virtual grounds together.
        r->vsp->set_waveform(dev::Waveform::dc(v));
        r->vsn->set_waveform(dev::Waveform::dc(v));
      },
      opt);
  for (const auto& pt : sweep) {
    ASSERT_TRUE(pt.op.converged) << "cm=" << pt.value;
    // Output CM stays regulated even as the virtual grounds move.
    const double out_cm =
        0.5 * (pt.op.v(r->drv.outp) + pt.op.v(r->drv.outn));
    EXPECT_NEAR(out_cm, 0.0, 0.25) << "cm=" << pt.value;
  }
}

TEST(ClassAb, PsrrAt1kHz) {
  // Table 2: PSRR(1 kHz) >= 78 dB (measured with mismatch on silicon).
  const auto pm = proc::ProcessModel::cmos12();
  num::Rng rng(11);
  auto r = make_drv_rig(3.0);
  // Inject mismatch into the output devices (the big ones dominate).
  for (auto* m : {r->drv.mop_p, r->drv.mon_p, r->drv.mop_n, r->drv.mon_n}) {
    const auto mm = pm.sample_mos_mismatch(
        rng, m->params().polarity == dev::MosPolarity::kNmos, m->width(),
        m->length());
    m->apply_mismatch(mm.dvth, mm.dbeta_rel);
  }
  ASSERT_TRUE(an::solve_op(r->nl).converged);
  r->vdd_src->set_waveform(dev::Waveform::dc(1.5).with_ac(1.0));
  ASSERT_TRUE(an::solve_op(r->nl).converged);
  const auto ac = an::run_ac(r->nl, {1e3});
  const double a_sup = std::abs(ac.vdiff(0, r->drv.outp, r->drv.outn));
  // Unity-gain configuration: PSRR = 1 / supply gain.
  EXPECT_GT(an::to_db(1.0 / a_sup), 78.0);
}

TEST(ClassAb, OutputSwingMatchesEq8) {
  // Push the buffer to clipping and compare the ceiling with Eq. (8).
  core::DriverDesign d;
  auto r = make_drv_rig(2.6, d);
  r->vsp->set_waveform(dev::Waveform::sine(0.0, 1.6, 1e3));  // overdrive
  r->vsn->set_waveform(dev::Waveform::sine(0.0, -1.6, 1e3));
  an::TranOptions t;
  t.t_stop = 3e-3;
  t.dt = 1e-6;
  t.record_after = 1e-3;
  const auto res = an::run_transient(r->nl, t);
  ASSERT_TRUE(res.ok);
  double vmax = 0.0;
  for (const auto& x : res.x) {
    const double vp = x[static_cast<std::size_t>(r->drv.outp) - 1];
    vmax = std::max(vmax, vp);
  }
  // Eq. (8) ceiling per side with the peak load current.
  const auto pm = proc::ProcessModel::cmos12();
  const double beta_p = pm.pmos().kp * d.w_out_p / d.l_out;
  const double i_peak = 2.0 * vmax / 50.0;
  const double ceiling = core::eq8_swing_high(1.3, i_peak, beta_p);
  // Eq. (8) bounds the linear (saturation-region) swing; in hard
  // clipping the PMOS goes triode and creeps past it toward the rail,
  // but can never exceed the rail itself.
  EXPECT_GT(vmax, ceiling - 0.35);
  EXPECT_LT(vmax, 1.3);
  // Paper: within ~200-300 mV of the rail.
  EXPECT_GT(vmax, 0.95);
}

}  // namespace
