// Transient analysis tests: RC step response, sine steady state,
// trapezoidal accuracy order, diode rectifier, a run started at t_start,
// slew measurement.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/transient.h"
#include "circuit/netlist.h"
#include "devices/diode.h"
#include "devices/mos_switch.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "signal/meter.h"

namespace {

using namespace msim;

TEST(Transient, RcStepResponse) {
  ckt::Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add<dev::VSource>("V1", in, ckt::kGround,
                       dev::Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9,
                                            1.0, 2.0));
  nl.add<dev::Resistor>("R1", in, out, 1e3);
  nl.add<dev::Capacitor>("C1", out, ckt::kGround, 1e-6);  // tau = 1 ms

  an::TranOptions opt;
  opt.t_stop = 5e-3;
  opt.dt = 10e-6;
  const auto r = an::run_transient(nl, opt);
  ASSERT_TRUE(r.ok);
  // v(out) at t: 1 - exp(-t/tau).
  for (std::size_t i = 0; i < r.time.size(); i += 50) {
    const double expected = 1.0 - std::exp(-r.time[i] / 1e-3);
    EXPECT_NEAR(r.x[i][out - 1], expected, 5e-3) << "t=" << r.time[i];
  }
}

TEST(Transient, SineThroughRcAttenuationAndPhase) {
  ckt::Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  const double fc = 1e3, f0 = 1e3;
  const double c = 1.0 / (2.0 * M_PI * 1e3 * fc);
  nl.add<dev::VSource>("V1", in, ckt::kGround,
                       dev::Waveform::sine(0.0, 1.0, f0));
  nl.add<dev::Resistor>("R1", in, out, 1e3);
  nl.add<dev::Capacitor>("C1", out, ckt::kGround, c);

  an::TranOptions opt;
  opt.t_stop = 20e-3;           // 20 cycles
  opt.dt = 1.0 / (f0 * 500.0);  // 500 points/cycle
  opt.record_after = 10e-3;     // analyze settled half
  const auto r = an::run_transient(nl, opt);
  ASSERT_TRUE(r.ok);
  const auto wave = r.node_wave(out);
  const auto amp = std::abs(sig::goertzel(wave, opt.dt, f0));
  EXPECT_NEAR(amp, 1.0 / std::sqrt(2.0), 5e-3);
}

TEST(Transient, TrapezoidalBeatsBackwardEulerOnLcTank) {
  // Lossless LC tank energy conservation: trapezoidal preserves the
  // oscillation amplitude; BE damps it artificially.
  auto build = [](ckt::Netlist& nl) {
    const auto a = nl.node("a");
    nl.add<dev::Inductor>("L1", a, ckt::kGround, 1e-3);
    nl.add<dev::Capacitor>("C1", a, ckt::kGround, 1e-9);
    // Kick the tank via a current impulse.
    nl.add<dev::ISource>("I1", ckt::kGround, a,
                         dev::Waveform::pulse(0.0, 1e-3, 0.0, 1e-9, 1e-9,
                                              2e-6, 1.0));
    return a;
  };
  const double f0 = 1.0 / (2.0 * M_PI * std::sqrt(1e-3 * 1e-9));
  an::TranOptions opt;
  opt.t_stop = 30.0 / f0;
  opt.dt = 1.0 / (f0 * 200.0);

  ckt::Netlist nl_trap;
  const auto a1 = build(nl_trap);
  opt.use_trapezoidal = true;
  const auto rt = an::run_transient(nl_trap, opt);
  ASSERT_TRUE(rt.ok);

  ckt::Netlist nl_be;
  const auto a2 = build(nl_be);
  opt.use_trapezoidal = false;
  const auto rb = an::run_transient(nl_be, opt);
  ASSERT_TRUE(rb.ok);

  // Compare late-time oscillation amplitude.
  auto late_max = [](const an::TranResult& r, ckt::NodeId n) {
    double m = 0.0;
    for (std::size_t i = r.x.size() * 3 / 4; i < r.x.size(); ++i)
      m = std::max(m, std::abs(r.x[i][n - 1]));
    return m;
  };
  const double amp_trap = late_max(rt, a1);
  const double amp_be = late_max(rb, a2);
  EXPECT_GT(amp_trap, 3.0 * amp_be);
}

TEST(Transient, DiodeRectifierClamps) {
  ckt::Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add<dev::VSource>("V1", in, ckt::kGround,
                       dev::Waveform::sine(0.0, 2.0, 1e3));
  nl.add<dev::Diode>("D1", in, out, dev::DiodeParams{});
  nl.add<dev::Resistor>("RL", out, ckt::kGround, 10e3);

  an::TranOptions opt;
  opt.t_stop = 3e-3;
  opt.dt = 1e-6;
  const auto r = an::run_transient(nl, opt);
  ASSERT_TRUE(r.ok);
  const auto wave = r.node_wave(out);
  double vmin = 1e9, vmax = -1e9;
  for (double v : wave) {
    vmin = std::min(vmin, v);
    vmax = std::max(vmax, v);
  }
  EXPECT_GT(vmax, 1.2);          // positive peaks pass (minus Vf)
  EXPECT_GT(vmin, -0.1);         // negative half blocked
}

TEST(Transient, PwlSourceFollowsBreakpoints) {
  ckt::Netlist nl;
  const auto a = nl.node("a");
  nl.add<dev::VSource>(
      "V1", a, ckt::kGround,
      dev::Waveform::pwl({0.0, 1e-3, 2e-3}, {0.0, 1.0, -1.0}));
  nl.add<dev::Resistor>("R1", a, ckt::kGround, 1e3);
  an::TranOptions opt;
  opt.t_stop = 2e-3;
  opt.dt = 50e-6;
  const auto r = an::run_transient(nl, opt);
  ASSERT_TRUE(r.ok);
  for (std::size_t i = 0; i < r.time.size(); ++i) {
    const double t = r.time[i];
    const double expected = t <= 1e-3 ? t / 1e-3 : 1.0 - 2.0 * (t - 1e-3) / 1e-3;
    EXPECT_NEAR(r.x[i][a - 1], expected, 1e-9);
  }
}

// A run that starts its clock at t_start starts from the operating
// point at t_start: a clocked switch reads its clock there, as a source
// reads its waveform.  The divider's switch is off at t = 0 and on from
// 0.5 ms on.
TEST(Transient, StartTimeOperatingPointReadsClockedSwitch) {
  ckt::Netlist nl;
  const auto a = nl.node("a");
  const auto mid = nl.node("mid");
  nl.add<dev::VSource>("V1", a, ckt::kGround, 1.0);
  nl.add<dev::Resistor>("R1", a, mid, 1e3);
  auto* sw = nl.add<dev::MosSwitch>("S1", mid, ckt::kGround, 1e3);
  sw->set_clock(
      dev::Waveform::pulse(0.0, 1.0, 0.5e-3, 1e-9, 1e-9, 1e-3, 2e-3));
  for (const double t_start : {0.0, 0.6e-3}) {
    an::TranOptions opt;
    opt.t_start = t_start;
    opt.t_stop = t_start + 0.05e-3;
    opt.dt = 10e-6;
    const auto r = an::run_transient(nl, opt);
    ASSERT_TRUE(r.ok) << r.diag.message();
    EXPECT_EQ(r.time.front(), t_start);
    EXPECT_NEAR(r.x.front()[mid - 1], t_start > 0.0 ? 0.5 : 1.0, 1e-6)
        << "t_start = " << t_start;
  }
}

TEST(Transient, MeterRmsOfKnownSine) {
  ckt::Netlist nl;
  const auto a = nl.node("a");
  nl.add<dev::VSource>("V1", a, ckt::kGround,
                       dev::Waveform::sine(0.5, 1.0, 1e3));
  nl.add<dev::Resistor>("R1", a, ckt::kGround, 1e3);
  an::TranOptions opt;
  opt.t_stop = 10e-3;  // integer cycles
  opt.dt = 1e-6;
  const auto r = an::run_transient(nl, opt);
  ASSERT_TRUE(r.ok);
  const auto w = r.node_wave(a);
  EXPECT_NEAR(sig::mean(w), 0.5, 2e-3);
  EXPECT_NEAR(sig::rms_ac(w), 1.0 / std::sqrt(2.0), 2e-3);
}

}  // namespace
