// Tests for the adjoint resistor-sensitivity analysis.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/op.h"
#include "analysis/sensitivity.h"
#include "circuit/netlist.h"
#include "core/mic_amp.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "process/process.h"

namespace {

using namespace msim;

TEST(Sensitivity, MatchesFiniteDifferenceOnDivider) {
  ckt::Netlist nl;
  const auto in = nl.node("in");
  const auto mid = nl.node("mid");
  nl.add<dev::VSource>("V1", in, ckt::kGround, 10.0);
  auto* r1 = nl.add<dev::Resistor>("R1", in, mid, 6e3);
  nl.add<dev::Resistor>("R2", mid, ckt::kGround, 4e3);
  const auto op = an::solve_op(nl);
  ASSERT_TRUE(op.converged);
  const auto sens =
      an::resistor_sensitivities(nl, op, mid, ckt::kGround);
  ASSERT_EQ(sens.size(), 2u);
  // Analytic: V = 10*R2/(R1+R2); dV/dR1 = -10*R2/(R1+R2)^2.
  const double dv_dr1 = -10.0 * 4e3 / (1e4 * 1e4);
  const double dv_dr2 = 10.0 * 6e3 / (1e4 * 1e4);
  for (const auto& s : sens) {
    if (s.name == "R1") {
      EXPECT_NEAR(s.dv_dr, dv_dr1, 1e-9);
    }
    if (s.name == "R2") {
      EXPECT_NEAR(s.dv_dr, dv_dr2, 1e-9);
    }
  }
  // Finite-difference cross-check on R1.
  r1->set_resistance(6e3 * 1.0001);
  const auto op2 = an::solve_op(nl);
  const double fd = (op2.v(mid) - op.v(mid)) / (6e3 * 0.0001);
  EXPECT_NEAR(fd, dv_dr1, std::abs(dv_dr1) * 1e-3);
}

TEST(Sensitivity, MicAmpGainDominatedByStringEnds) {
  // The adjoint analysis must identify the gain-setting segments (Ra
  // near the center tap and the top segment) as the dominant
  // sensitivities of the DC gain - the analytic version of the paper's
  // "careful layout of the resistor strings" requirement.
  ckt::Netlist nl;
  const auto vdd = nl.node("vdd");
  const auto vss = nl.node("vss");
  const auto inp = nl.node("inp");
  const auto inn = nl.node("inn");
  nl.add<dev::VSource>("Vdd", vdd, ckt::kGround, 1.3);
  nl.add<dev::VSource>("Vss", vss, ckt::kGround, -1.3);
  nl.add<dev::VSource>("Vinp", inp, ckt::kGround, 5e-3);
  nl.add<dev::VSource>("Vinn", inn, ckt::kGround, -5e-3);
  const auto pm = proc::ProcessModel::cmos12();
  auto mic = core::build_mic_amp(nl, pm, {}, vdd, vss, ckt::kGround, inp,
                                 inn);
  mic.set_gain_code(5);
  const auto op = an::solve_op(nl);
  ASSERT_TRUE(op.converged);
  const auto sens =
      an::resistor_sensitivities(nl, op, mic.outp, mic.outn);
  // Collect |dV/dlogR| for string segments vs CM detector resistors.
  double worst_string = 0.0, worst_cm = 0.0;
  for (const auto& s : sens) {
    if (s.name.find("Rs") != std::string::npos)
      worst_string = std::max(worst_string, std::abs(s.dv_dlog));
    if (s.name.find("Rc") != std::string::npos)
      worst_cm = std::max(worst_cm, std::abs(s.dv_dlog));
  }
  EXPECT_GT(worst_string, 10.0 * worst_cm);
}

}  // namespace
