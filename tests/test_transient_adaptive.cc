// Adaptive (LTE-controlled) transient tests: accuracy vs the analytic
// solution, step-size economy on smooth waveforms, step refinement at
// fast edges, equivalence with the fixed-step integrator, and the Newton
// predictor's iteration saving under step-size control.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/transient.h"
#include "bench_util.h"
#include "circuit/netlist.h"
#include "devices/diode.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "signal/meter.h"

namespace {

using namespace msim;

void build_rc(ckt::Netlist& nl, dev::Waveform w) {
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add<dev::VSource>("V1", in, ckt::kGround, std::move(w));
  nl.add<dev::Resistor>("R1", in, out, 1e3);
  nl.add<dev::Capacitor>("C1", out, ckt::kGround, 1e-6);  // tau = 1 ms
}

TEST(AdaptiveTransient, RcStepMatchesAnalyticSolution) {
  ckt::Netlist nl;
  build_rc(nl, dev::Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 1.0, 2.0));
  an::TranOptions opt;
  opt.t_stop = 5e-3;
  opt.dt = 1e-6;
  opt.adaptive = true;
  opt.lte_tol = 20e-6;
  const auto r = an::run_transient(nl, opt);
  ASSERT_TRUE(r.ok);
  const auto out = nl.node("out");
  for (std::size_t i = 0; i < r.time.size(); i += 7) {
    const double expected = 1.0 - std::exp(-r.time[i] / 1e-3);
    EXPECT_NEAR(r.x[i][out - 1], expected, 3e-3) << "t=" << r.time[i];
  }
}

TEST(AdaptiveTransient, UsesFewerStepsThanFixedOnSmoothTail) {
  // The RC step response flattens after a few tau; the controller must
  // stretch the step there.
  ckt::Netlist nl;
  build_rc(nl, dev::Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 1.0, 2.0));
  an::TranOptions opt;
  opt.t_stop = 20e-3;  // mostly flat tail
  opt.dt = 2e-6;
  opt.adaptive = true;
  opt.lte_tol = 50e-6;
  const auto r = an::run_transient(nl, opt);
  ASSERT_TRUE(r.ok);
  const std::size_t fixed_steps =
      static_cast<std::size_t>(opt.t_stop / opt.dt);
  EXPECT_LT(r.time.size(), fixed_steps / 4);
}

TEST(AdaptiveTransient, RefinesAtPulseEdges) {
  ckt::Netlist nl;
  build_rc(nl, dev::Waveform::pulse(0.0, 1.0, 1e-3, 10e-6, 10e-6, 2e-3,
                                    10e-3));
  an::TranOptions opt;
  opt.t_stop = 5e-3;
  opt.dt = 5e-6;
  opt.adaptive = true;
  opt.lte_tol = 20e-6;
  const auto r = an::run_transient(nl, opt);
  ASSERT_TRUE(r.ok);
  // Median step in the flat pre-edge region vs around the edge.
  auto median_dt = [&](double t0, double t1) {
    std::vector<double> ds;
    for (std::size_t i = 1; i < r.time.size(); ++i)
      if (r.time[i] > t0 && r.time[i] < t1)
        ds.push_back(r.time[i] - r.time[i - 1]);
    if (ds.empty()) return 0.0;
    std::sort(ds.begin(), ds.end());
    return ds[ds.size() / 2];
  };
  const double dt_flat = median_dt(4e-3, 5e-3);
  const double dt_edge = median_dt(0.99e-3, 1.1e-3);
  ASSERT_GT(dt_flat, 0.0);
  ASSERT_GT(dt_edge, 0.0);
  EXPECT_GT(dt_flat, 2.0 * dt_edge);
}

TEST(AdaptiveTransient, SineAmplitudeAccuracy) {
  ckt::Netlist nl;
  build_rc(nl, dev::Waveform::sine(0.0, 1.0, 159.155));  // f = fc
  an::TranOptions opt;
  opt.t_stop = 40e-3;
  opt.dt = 5e-6;
  opt.adaptive = true;
  opt.lte_tol = 20e-6;
  opt.record_after = 20e-3;
  const auto r = an::run_transient(nl, opt);
  ASSERT_TRUE(r.ok);
  // Resample is unnecessary: check the max against the analytic gain.
  const auto out = nl.node("out");
  double vmax = 0.0;
  for (const auto& x : r.x)
    vmax = std::max(vmax, std::abs(x[out - 1]));
  const double expected = 1.0 / std::sqrt(2.0);  // |H| at the pole
  EXPECT_NEAR(vmax, expected, 0.01);
}

TEST(AdaptiveTransient, NonlinearRectifierStillConverges) {
  ckt::Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add<dev::VSource>("V1", in, ckt::kGround,
                       dev::Waveform::sine(0.0, 2.0, 1e3));
  nl.add<dev::Diode>("D1", in, out, dev::DiodeParams{});
  nl.add<dev::Resistor>("RL", out, ckt::kGround, 10e3);
  nl.add<dev::Capacitor>("CL", out, ckt::kGround, 100e-9);
  an::TranOptions opt;
  opt.t_stop = 3e-3;
  opt.dt = 1e-6;
  opt.adaptive = true;
  opt.lte_tol = 50e-6;
  const auto r = an::run_transient(nl, opt);
  ASSERT_TRUE(r.ok);
  // Peak detector: output close to peak minus a diode drop.
  double vmax = 0.0;
  for (const auto& x : r.x) vmax = std::max(vmax, x[out - 1]);
  EXPECT_GT(vmax, 1.2);
  EXPECT_LT(vmax, 1.7);
}

TEST(AdaptiveTransient, RespectsDtMax) {
  ckt::Netlist nl;
  build_rc(nl, dev::Waveform::dc(1.0));
  an::TranOptions opt;
  opt.t_stop = 10e-3;
  opt.dt = 1e-6;
  opt.adaptive = true;
  opt.dt_max = 20e-6;
  const auto r = an::run_transient(nl, opt);
  ASSERT_TRUE(r.ok);
  for (std::size_t i = 1; i < r.time.size(); ++i)
    EXPECT_LE(r.time[i] - r.time[i - 1], 20e-6 * 1.001);
}

// Each accepted step starts Newton from the quadratic through the last
// three accepted points, at the step the controller chose.  On the
// class-AB buffer at full swing, iterations per accepted step (rejected
// attempts included) fell from 4.31 when every attempt started from the
// last accepted point to 3.04.
TEST(AdaptiveTransient, PredictorBoundsNewtonIterationsPerStep) {
  auto rig = bench::make_drv_rig();
  rig->vsp->set_waveform(dev::Waveform::sine(0.0, 0.3, 1e3));
  rig->vsn->set_waveform(dev::Waveform::sine(0.0, -0.3, 1e3));
  an::TranOptions opt;
  opt.t_stop = 1e-3;
  opt.dt = 2e-6;
  opt.adaptive = true;
  opt.lte_tol = 20e-6;
  const auto r = an::run_transient(rig->nl, opt);
  ASSERT_TRUE(r.ok) << r.diag.message();
  ASSERT_GT(r.telemetry.accepted_steps, 0);
  EXPECT_LE(r.telemetry.newton_iterations,
            3.6 * r.telemetry.accepted_steps);
}

}  // namespace
