// AC analysis tests against closed-form transfer functions: RC low-pass,
// RLC resonance, MOS common-source gain and gate-capacitance pole.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "analysis/ac.h"
#include "analysis/op.h"
#include "circuit/netlist.h"
#include "devices/mosfet.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "process/process.h"

namespace {

using namespace msim;

TEST(Ac, RcLowPassPoleAndRolloff) {
  ckt::Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add<dev::VSource>("V1", in, ckt::kGround,
                       dev::Waveform::dc(0.0).with_ac(1.0));
  nl.add<dev::Resistor>("R1", in, out, 1e3);
  nl.add<dev::Capacitor>("C1", out, ckt::kGround, 159.155e-9);  // fc ~ 1kHz
  ASSERT_TRUE(an::solve_op(nl).converged);

  const double fc = 1.0 / (2.0 * M_PI * 1e3 * 159.155e-9);
  const auto r = an::run_ac(nl, {fc / 100.0, fc, fc * 100.0});
  // Passband ~ 1, -3 dB at fc, -40 dB two decades up.
  EXPECT_NEAR(std::abs(r.v(0, out)), 1.0, 1e-3);
  EXPECT_NEAR(std::abs(r.v(1, out)), 1.0 / std::sqrt(2.0), 1e-3);
  EXPECT_NEAR(an::to_db(std::abs(r.v(2, out))), -40.0, 0.1);
  // Phase at the pole is -45 degrees.
  EXPECT_NEAR(std::arg(r.v(1, out)), -M_PI / 4.0, 1e-3);
}

TEST(Ac, SeriesRlcResonance) {
  ckt::Netlist nl;
  const auto in = nl.node("in");
  const auto a = nl.node("a");
  const auto out = nl.node("out");
  nl.add<dev::VSource>("V1", in, ckt::kGround,
                       dev::Waveform::dc(0.0).with_ac(1.0));
  nl.add<dev::Resistor>("R1", in, a, 50.0);
  nl.add<dev::Inductor>("L1", a, out, 1e-3);
  nl.add<dev::Capacitor>("C1", out, ckt::kGround, 1e-9);
  ASSERT_TRUE(an::solve_op(nl).converged);

  const double f0 = 1.0 / (2.0 * M_PI * std::sqrt(1e-3 * 1e-9));
  const auto r = an::run_ac(nl, {f0});
  // At resonance the full source voltage appears across C times Q.
  const double q = std::sqrt(1e-3 / 1e-9) / 50.0;
  EXPECT_NEAR(std::abs(r.v(0, out)), q, q * 0.01);
}

TEST(Ac, InductorShortsAtDcOpenAtHighFreq) {
  ckt::Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add<dev::VSource>("V1", in, ckt::kGround,
                       dev::Waveform::dc(0.0).with_ac(1.0));
  nl.add<dev::Inductor>("L1", in, out, 1e-3);
  nl.add<dev::Resistor>("R1", out, ckt::kGround, 1e3);
  ASSERT_TRUE(an::solve_op(nl).converged);
  const auto r = an::run_ac(nl, {1.0, 1e9});
  EXPECT_NEAR(std::abs(r.v(0, out)), 1.0, 1e-4);
  EXPECT_LT(std::abs(r.v(1, out)), 1e-3);
}

TEST(Ac, CommonSourceGainMatchesGmRo) {
  // NMOS with ideal current-source-ish load resistor: |A| = gm*(RL||ro).
  ckt::Netlist nl;
  const auto vdd = nl.node("vdd");
  const auto g = nl.node("g");
  const auto d = nl.node("d");
  const auto pm = proc::ProcessModel::cmos12();
  nl.add<dev::VSource>("Vdd", vdd, ckt::kGround, 3.0);
  nl.add<dev::VSource>("Vg", g, ckt::kGround,
                       dev::Waveform::dc(1.0).with_ac(1.0));
  nl.add<dev::Resistor>("RL", vdd, d, 10e3);
  auto* m = nl.add<dev::Mosfet>("M1", d, g, ckt::kGround, ckt::kGround,
                                pm.nmos(), 50e-6, 2e-6);
  ASSERT_TRUE(an::solve_op(nl).converged);
  const auto& op = m->op();
  ASSERT_TRUE(op.saturated);

  const auto r = an::run_ac(nl, {100.0});
  const double ro = 1.0 / op.gds;
  const double expected = op.gm * (10e3 * ro) / (10e3 + ro);
  EXPECT_NEAR(std::abs(r.v(0, d)), expected, expected * 0.01);
}

TEST(Ac, GateCapacitanceMakesInputPole) {
  // Drive the gate through a large resistor: pole at 1/(2pi R (cgs+cgd*(1+A))).
  ckt::Netlist nl;
  const auto vdd = nl.node("vdd");
  const auto in = nl.node("in");
  const auto g = nl.node("g");
  const auto d = nl.node("d");
  const auto pm = proc::ProcessModel::cmos12();
  nl.add<dev::VSource>("Vdd", vdd, ckt::kGround, 3.0);
  nl.add<dev::VSource>("Vin", in, ckt::kGround,
                       dev::Waveform::dc(1.0).with_ac(1.0));
  nl.add<dev::Resistor>("Rg", in, g, 1e6);
  nl.add<dev::Resistor>("RL", vdd, d, 5e3);
  auto* m = nl.add<dev::Mosfet>("M1", d, g, ckt::kGround, ckt::kGround,
                                pm.nmos(), 200e-6, 2e-6);
  ASSERT_TRUE(an::solve_op(nl).converged);
  const auto& op = m->op();
  const double a_v = op.gm * 5e3;  // approx (ro >> RL)
  const double c_in = op.cgs + op.cgd * (1.0 + a_v);  // Miller
  const double fp = 1.0 / (2.0 * M_PI * 1e6 * c_in);

  const auto r = an::run_ac(nl, {fp / 100.0, fp});
  const double lo = std::abs(r.v(0, g));
  const double at_pole = std::abs(r.v(1, g));
  EXPECT_NEAR(at_pole / lo, 1.0 / std::sqrt(2.0), 0.1);
}

TEST(Ac, DifferentialProbeHelper) {
  ckt::Netlist nl;
  const auto in = nl.node("in");
  const auto a = nl.node("a");
  const auto b = nl.node("b");
  nl.add<dev::VSource>("V1", in, ckt::kGround,
                       dev::Waveform::dc(0.0).with_ac(1.0));
  nl.add<dev::Resistor>("R1", in, a, 1e3);
  nl.add<dev::Resistor>("R2", a, b, 1e3);
  nl.add<dev::Resistor>("R3", b, ckt::kGround, 1e3);
  ASSERT_TRUE(an::solve_op(nl).converged);
  const auto r = an::run_ac(nl, {1e3});
  EXPECT_NEAR(std::abs(r.vdiff(0, a, b)), 1.0 / 3.0, 1e-6);
}

TEST(Ac, LogFrequenciesWithEqualEndpointsIsOnePoint) {
  const auto f = an::log_frequencies(10.0, 10.0, 10);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0], 10.0);
}

}  // namespace
