// Static-analysis layer tests: the structural MNA analyzer (maximum
// matching on the recorded DC stamp pattern), the stamp-contract
// checker, the pass-based lint framework (registry, per-pass
// enable/disable, JSON output, parser line numbers) and the preflight
// verdict cache Monte-Carlo samples inherit.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/ac.h"
#include "analysis/mna.h"
#include "analysis/op.h"
#include "analysis/range.h"
#include "analysis/structural.h"
#include "bench_util.h"
#include "circuit/lint.h"
#include "circuit/netlist.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "numeric/interval.h"
#include "numeric/sparse.h"
#include "spicefmt/parser.h"

namespace {

using namespace msim;

std::string fault_path(const char* name) {
  return std::string(MSIM_TEST_DIR) + "/faults/" + name;
}

bool has_issue(const std::vector<ckt::LintIssue>& issues, ckt::LintKind k) {
  for (const auto& i : issues)
    if (i.kind == k) return true;
  return false;
}

const ckt::LintIssue* find_issue(const std::vector<ckt::LintIssue>& issues,
                                 ckt::LintKind k) {
  for (const auto& i : issues)
    if (i.kind == k) return &i;
  return nullptr;
}

// A device that lies about its stamp pattern: declare_stamps() registers
// the default own-unknown envelope, but stamp() also writes a column of
// a node it never listed -- exactly the bug class that corrupts the
// shared sparse skeleton.
class RogueDevice : public ckt::Device {
 public:
  RogueDevice(std::string name, ckt::NodeId p, ckt::NodeId n,
              ckt::NodeId secret)
      : Device(std::move(name), {p, n}), secret_(secret) {}
  std::string_view type() const override { return "rogue"; }
  void stamp(ckt::StampContext& ctx) const override {
    ctx.add_conductance(nodes_[0], nodes_[1], 1e-3);
    // Out-of-pattern write: a node that is not one of our terminals.
    ctx.add_jac(nodes_[0] - 1, secret_ - 1, 1e-3);
  }
  void stamp_ac(ckt::AcStampContext& ctx) const override {
    ctx.add_admittance(nodes_[0], nodes_[1], {1e-3, 0.0});
  }

 private:
  ckt::NodeId secret_;
};

TEST(StructuralRank, VLoopNamedAndRejectedBeforeAnyFactorization) {
  auto parsed = spice::parse_netlist_file(fault_path("vloop.sp"));
  auto& nl = *parsed.netlist;
  nl.assign_unknowns();

  const auto rep = an::analyze_structure(nl);
  ASSERT_TRUE(rep.singular());
  EXPECT_EQ(rep.unknowns, rep.structural_rank + 1);
  ASSERT_EQ(rep.deficiencies.size(), 1u);
  const auto& d = rep.deficiencies[0];
  EXPECT_EQ(d.node, "a");
  EXPECT_NE(std::find(d.devices.begin(), d.devices.end(), "v1"),
            d.devices.end());
  EXPECT_NE(std::find(d.devices.begin(), d.devices.end(), "v2"),
            d.devices.end());
  EXPECT_NE(std::find(d.unknowns.begin(), d.unknowns.end(), "v(a)"),
            d.unknowns.end());

  // The pre-pass rejects the netlist before the engine ever factors.
  const long factors_before = an::factor_call_count();
  const auto op = an::solve_op(nl);
  EXPECT_FALSE(op.converged);
  EXPECT_EQ(op.diag.status, an::SolveStatus::kBadTopology);
  EXPECT_EQ(op.diag.stage, "lint");
  EXPECT_NE(op.diag.detail.find("structural_singular"), std::string::npos);
  EXPECT_EQ(an::factor_call_count(), factors_before);
}

TEST(StructuralRank, InductorVLoopRejectedBeforeAnyFactorization) {
  auto parsed = spice::parse_netlist_file(fault_path("vloop_inductor.sp"));
  auto& nl = *parsed.netlist;
  nl.assign_unknowns();
  an::register_analysis_lint_passes();

  const auto issues = ckt::lint(nl);
  ASSERT_TRUE(ckt::lint_has_errors(issues));
  const auto* loop = find_issue(issues, ckt::LintKind::kVoltageLoop);
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->device, "l1");
  EXPECT_EQ(loop->line, 3);
  EXPECT_TRUE(has_issue(issues, ckt::LintKind::kStructuralSingular));

  const long factors_before = an::factor_call_count();
  const auto op = an::solve_op(nl);
  EXPECT_EQ(op.diag.status, an::SolveStatus::kBadTopology);
  EXPECT_EQ(an::factor_call_count(), factors_before);
}

TEST(StructuralRank, CurrentCutsetWarnsAndStrictRejectsBeforeFactor) {
  auto parsed = spice::parse_netlist_file(fault_path("is_cutset.sp"));
  auto& nl = *parsed.netlist;
  nl.assign_unknowns();
  an::register_analysis_lint_passes();

  // The gshunt guard keeps the system structurally full-rank, so the
  // cutset is a warning (named island + feeding source), not an error.
  const auto issues = ckt::lint(nl);
  EXPECT_FALSE(ckt::lint_has_errors(issues));
  const auto* cut = find_issue(issues, ckt::LintKind::kCurrentCutset);
  ASSERT_NE(cut, nullptr);
  EXPECT_EQ(cut->node, "mid");
  EXPECT_EQ(cut->device, "i1");
  EXPECT_EQ(cut->line, 4);

  an::OpOptions strict;
  strict.lint_strict = true;
  const long factors_before = an::factor_call_count();
  const auto op = an::solve_op(nl, strict);
  EXPECT_EQ(op.diag.status, an::SolveStatus::kBadTopology);
  EXPECT_EQ(op.diag.stage, "lint");
  EXPECT_EQ(an::factor_call_count(), factors_before);
}

TEST(StructuralRank, FloatingNodeStrictRejectsBeforeFactor) {
  auto parsed = spice::parse_netlist_file(fault_path("floating_node.sp"));
  auto& nl = *parsed.netlist;
  an::OpOptions strict;
  strict.lint_strict = true;
  const long factors_before = an::factor_call_count();
  const auto op = an::solve_op(nl, strict);
  EXPECT_EQ(op.diag.status, an::SolveStatus::kBadTopology);
  EXPECT_EQ(op.diag.unknown, "v(float)");
  EXPECT_EQ(an::factor_call_count(), factors_before);
}

TEST(StructuralRank, CleanCircuitsAreFullRank) {
  auto mic = bench::make_mic_rig();
  mic->nl.assign_unknowns();
  const auto rep = an::analyze_structure(mic->nl);
  EXPECT_FALSE(rep.singular());
  EXPECT_EQ(rep.structural_rank, mic->nl.unknown_count());
  EXPECT_TRUE(rep.deficiencies.empty());
}

TEST(StructuralRank, ParallelDevicesScaleLinearly) {
  // n resistors in parallel put n devices on one row; deduplicating the
  // row's device list must not cost O(n) per write (a std::find dedupe
  // measured 21x from 10k to 40k).  Each timed pass starts after a
  // 16 MB sweep that evicts the netlist from the core's private cache:
  // the 10k netlist fits there and the 40k one does not, so warm
  // timings would measure the cache hierarchy as much as the pass.
  // Best of 3 per size; host noise gets up to three attempts.
  std::vector<char> evict(16 << 20);
  auto make = [](int n) {
    auto nl = std::make_unique<ckt::Netlist>();
    const auto a = nl->node("a");
    nl->add<dev::ISource>("i1", ckt::kGround, a, 1e-3);
    for (int i = 0; i < n; ++i)
      nl->add<dev::Resistor>("r" + std::to_string(i), a, ckt::kGround, 1e3);
    nl->assign_unknowns();
    return nl;
  };
  auto best_ms = [&](const ckt::Netlist& nl) {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      for (std::size_t i = 0; i < evict.size(); i += 64) ++evict[i];
      const auto t0 = std::chrono::steady_clock::now();
      const auto r = an::analyze_structure(nl);
      const std::chrono::duration<double, std::milli> dt =
          std::chrono::steady_clock::now() - t0;
      EXPECT_FALSE(r.singular());
      best = std::min(best, dt.count());
    }
    return best;
  };
  const auto n10k = make(10000);
  const auto n40k = make(40000);
  double t10k = 0.0, t40k = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    t10k = best_ms(*n10k);
    t40k = best_ms(*n40k);
    if (t40k <= 6.0 * t10k) break;
  }
  EXPECT_LE(t40k, 6.0 * t10k) << t10k << " ms at 10k, " << t40k
                              << " ms at 40k";
}

TEST(StampContract, RogueDeviceIsCaughtAndNamed) {
  ckt::Netlist nl;
  const auto a = nl.node("a");
  const auto b = nl.node("b");
  const auto c = nl.node("c");
  nl.add<dev::VSource>("v1", a, ckt::kGround, 1.0);
  nl.add<dev::Resistor>("r1", a, b, 1e3);
  nl.add<dev::Resistor>("r2", b, ckt::kGround, 1e3);
  nl.add<dev::Resistor>("r3", c, ckt::kGround, 1e3);
  nl.add<RogueDevice>("x_rogue", a, b, c);
  nl.assign_unknowns();

  const auto violations = an::check_stamp_contracts(nl);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].device, "x_rogue");
  EXPECT_EQ(violations[0].context, "dc");
  EXPECT_EQ(violations[0].row_label, "v(a)");
  EXPECT_EQ(violations[0].col_label, "v(c)");
  EXPECT_NE(violations[0].message.find("outside its declared pattern"),
            std::string::npos);

  // As a lint pass (always registered; enabled by default only in
  // debug builds, so enable it explicitly here).
  an::register_analysis_lint_passes();
  ckt::LintOptions opt;
  opt.enable = {"stamp_contract"};
  const auto issues = ckt::lint(nl, opt);
  const auto* issue = find_issue(issues, ckt::LintKind::kStampContract);
  ASSERT_NE(issue, nullptr);
  EXPECT_EQ(issue->severity, ckt::LintSeverity::kError);
  EXPECT_EQ(issue->device, "x_rogue");

#ifndef NDEBUG
  // Debug builds run the checker automatically when a fresh sparse
  // pattern is built: constructing the system throws a named error
  // instead of silently corrupting the shared skeleton.
  an::RealSystem sys;
  EXPECT_THROW(sys.init(nl, an::SolverKind::kSparse), std::logic_error);
#endif
}

TEST(StampContract, StockDevicesHonorTheirDeclaredPatterns) {
  auto mic = bench::make_mic_rig();
  mic->nl.assign_unknowns();
  EXPECT_TRUE(an::check_stamp_contracts(mic->nl).empty());

  auto chip = bench::make_chip_rig();
  chip->nl.assign_unknowns();
  EXPECT_TRUE(an::check_stamp_contracts(chip->nl).empty());
}

TEST(Preflight, McSamplesInheritCleanVerdictThroughCacheAdoption) {
  auto nominal = bench::make_mic_rig();
  const auto op = an::solve_op(nominal->nl);
  ASSERT_TRUE(op.converged);

  // The nominal solve ran (and cached) the full pre-pass; a same-
  // topology sample that adopts the solver cache inherits the verdict,
  // so its own solve must not re-run the analysis.
  auto sample = bench::make_mic_rig();
  sample->nl.adopt_solver_cache(nominal->nl);
  const long full_runs = an::preflight_full_runs();
  const auto op2 = an::solve_op(sample->nl);
  ASSERT_TRUE(op2.converged);
  EXPECT_EQ(an::preflight_full_runs(), full_runs);

  // A sample that does NOT adopt pays one full pass of its own.
  auto cold = bench::make_mic_rig();
  const auto op3 = an::solve_op(cold->nl);
  ASSERT_TRUE(op3.converged);
  EXPECT_EQ(an::preflight_full_runs(), full_runs + 1);

  // Repeated solves over the same netlist reuse its verdict.
  const auto op4 = an::solve_op(sample->nl);
  ASSERT_TRUE(op4.converged);
  EXPECT_EQ(an::preflight_full_runs(), full_runs + 1);
}

TEST(Preflight, TopologyFingerprintIgnoresValuesNotStructure) {
  auto build = [](double r) {
    ckt::Netlist nl;
    const auto a = nl.node("a");
    nl.add<dev::VSource>("v1", a, ckt::kGround, 1.0);
    nl.add<dev::Resistor>("r1", a, ckt::kGround, r);
    nl.assign_unknowns();
    return nl.topology_fingerprint();
  };
  EXPECT_EQ(build(1e3), build(2e3));  // value change: same structure

  ckt::Netlist other;
  const auto a = other.node("a");
  other.add<dev::VSource>("v1", a, ckt::kGround, 1.0);
  other.add<dev::Resistor>("r2", a, ckt::kGround, 1e3);
  other.assign_unknowns();
  EXPECT_NE(build(1e3), other.topology_fingerprint());
}

TEST(LintFramework, PassesCanBeDisabledPerInvocation) {
  auto parsed = spice::parse_netlist_file(fault_path("duplicate_names.sp"));
  auto& nl = *parsed.netlist;

  const auto all = ckt::lint(nl);
  ASSERT_TRUE(ckt::lint_has_errors(all));

  ckt::LintOptions opt;
  opt.disable = {"duplicate_names"};
  const auto filtered = ckt::lint(nl, opt);
  EXPECT_FALSE(has_issue(filtered, ckt::LintKind::kDuplicateName));
}

TEST(LintFramework, DuplicateNamesCarrySourceLines) {
  auto parsed = spice::parse_netlist_file(fault_path("duplicate_names.sp"));
  const auto issues = ckt::lint(*parsed.netlist);
  const auto* dup = find_issue(issues, ckt::LintKind::kDuplicateName);
  ASSERT_NE(dup, nullptr);
  EXPECT_EQ(dup->device, "r1");
  EXPECT_EQ(dup->line, 4);  // the redefinition is the card to fix
  EXPECT_NE(dup->message.find("lines 3, 4"), std::string::npos);
  EXPECT_NE(ckt::lint_report(issues).find("[line 4]"), std::string::npos);
}

TEST(LintFramework, DanglingTerminalCarriesSourceLine) {
  auto parsed =
      spice::parse_netlist_file(fault_path("dangling_terminal.sp"));
  const auto issues = ckt::lint(*parsed.netlist);
  const auto* dangle =
      find_issue(issues, ckt::LintKind::kDanglingTerminal);
  ASSERT_NE(dangle, nullptr);
  EXPECT_EQ(dangle->node, "stub");
  EXPECT_EQ(dangle->line, 4);  // r2 a stub 10k
}

TEST(LintFramework, JsonReportIsStructured) {
  auto parsed = spice::parse_netlist_file(fault_path("duplicate_names.sp"));
  const auto issues = ckt::lint(*parsed.netlist);
  const std::string json = ckt::lint_json(issues);
  EXPECT_NE(json.find("\"pass\":\"duplicate_names\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"duplicate_name\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":4"), std::string::npos);
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
}

TEST(LintFramework, RegistryReplacesPassesByName) {
  // Re-registering under an existing name replaces the pass instead of
  // duplicating it (register_analysis_lint_passes relies on this being
  // safe to call at every preflight).
  const auto before = ckt::LintRegistry::instance().passes().size();
  an::register_analysis_lint_passes();
  an::register_analysis_lint_passes();
  const auto after = ckt::LintRegistry::instance().passes().size();
  EXPECT_GE(after, before);
  std::size_t structural = 0;
  for (const auto& p : ckt::LintRegistry::instance().passes())
    if (p.name == "structural_rank") ++structural;
  EXPECT_EQ(structural, 1u);
}

// -------------------------------------------------------------------------
// Value-range static analysis (interval abstract interpretation).

TEST(ValueRange, IntervalArithmeticHandlesInfinitiesWithoutNaN) {
  using num::Interval;
  const Interval top = Interval::top();
  EXPECT_TRUE(top.is_top());
  EXPECT_TRUE(top.contains(1e300));

  const auto a = Interval::bounds(-1.0, 2.0);
  const auto b = Interval::bounds(3.0, 0.5);  // normalized to [0.5, 3]
  EXPECT_DOUBLE_EQ((a + b).lo, -0.5);
  EXPECT_DOUBLE_EQ((a + b).hi, 5.0);
  EXPECT_DOUBLE_EQ((a - b).lo, -4.0);
  EXPECT_DOUBLE_EQ((a - b).hi, 1.5);
  EXPECT_DOUBLE_EQ(num::scale(a, -2.0).lo, -4.0);
  EXPECT_DOUBLE_EQ(num::scale(a, -2.0).hi, 2.0);
  EXPECT_DOUBLE_EQ(num::hull(a, b).lo, -1.0);
  EXPECT_DOUBLE_EQ(num::hull(a, b).hi, 3.0);
  EXPECT_DOUBLE_EQ(num::mul(a, b).lo, -3.0);
  EXPECT_DOUBLE_EQ(num::mul(a, b).hi, 6.0);
  EXPECT_DOUBLE_EQ(num::intersect(a, b).lo, 0.5);
  EXPECT_DOUBLE_EQ(num::intersect(a, b).hi, 2.0);

  // The NaN traps: inf - inf in a sum, 0 * inf in a product, and a
  // zero gain applied to an unknown voltage must all stay well-defined.
  EXPECT_TRUE((top + a).is_top());
  EXPECT_TRUE((top - top).is_top());
  const auto z = num::mul(top, Interval::point(0.0));
  EXPECT_DOUBLE_EQ(z.lo, 0.0);
  EXPECT_DOUBLE_EQ(z.hi, 0.0);
  EXPECT_DOUBLE_EQ(num::scale(top, 0.0).width(), 0.0);
}

TEST(ValueRange, ResistiveDividerIsBoundedByTheSupplyHull) {
  ckt::Netlist nl;
  const auto vdd = nl.node("vdd");
  const auto mid = nl.node("mid");
  nl.add<dev::VSource>("vdd", vdd, ckt::kGround, 2.6);
  nl.add<dev::Resistor>("r1", vdd, mid, 1e3);
  nl.add<dev::Resistor>("r2", mid, ckt::kGround, 1e3);
  nl.assign_unknowns();

  const auto rep = an::range_analysis(nl);
  ASSERT_TRUE(rep.converged);
  ASSERT_TRUE(rep.supply_bounded);
  EXPECT_DOUBLE_EQ(rep.supply_hull.lo, 0.0);
  EXPECT_DOUBLE_EQ(rep.supply_hull.hi, 2.6);

  // The supply node is pinned exactly; the divider tap is confined to
  // the hull of its neighbours (maximum principle), not left at top.
  const auto& v_vdd = rep.bounds[nl.node_unknown(vdd)];
  EXPECT_DOUBLE_EQ(v_vdd.lo, 2.6);
  EXPECT_DOUBLE_EQ(v_vdd.hi, 2.6);
  const auto& v_mid = rep.bounds[nl.node_unknown(mid)];
  ASSERT_TRUE(v_mid.bounded());
  EXPECT_GE(v_mid.lo, 0.0);
  EXPECT_LE(v_mid.hi, 2.6);
  EXPECT_TRUE(rep.rail_violations.empty());
  EXPECT_TRUE(rep.dead_devices.empty());
}

TEST(ValueRange, CurrentInjectorsDisqualifyTheHullRule) {
  // A nonzero current source injects at x, so the maximum principle
  // must NOT bound x (the voltage depends on the resistance and can
  // exceed any neighbour hull).  A zero-valued source is inert and
  // keeps its node eligible.
  ckt::Netlist nl;
  const auto x = nl.node("x");
  const auto y = nl.node("y");
  nl.add<dev::ISource>("i1", ckt::kGround, x, 1e-6);
  nl.add<dev::Resistor>("r1", x, ckt::kGround, 1e3);
  nl.add<dev::ISource>("i0", ckt::kGround, y, 0.0);
  nl.add<dev::Resistor>("r2", y, ckt::kGround, 1e3);
  nl.assign_unknowns();

  const auto rep = an::range_analysis(nl);
  EXPECT_TRUE(rep.bounds[nl.node_unknown(x)].is_top());
  const auto& v_y = rep.bounds[nl.node_unknown(y)];
  ASSERT_TRUE(v_y.bounded());
  EXPECT_DOUBLE_EQ(v_y.lo, 0.0);
  EXPECT_DOUBLE_EQ(v_y.hi, 0.0);
}

TEST(ValueRange, RailViolationRejectedBeforeAnyFactorization) {
  auto parsed = spice::parse_netlist_file(fault_path("rail_violation.sp"));
  auto& nl = *parsed.netlist;
  nl.assign_unknowns();
  an::register_analysis_lint_passes();

  const auto issues = ckt::lint(nl);
  ASSERT_TRUE(ckt::lint_has_errors(issues));
  const auto* rail = find_issue(issues, ckt::LintKind::kRailViolation);
  ASSERT_NE(rail, nullptr);
  EXPECT_EQ(rail->severity, ckt::LintSeverity::kError);
  EXPECT_EQ(rail->node, "nb");
  EXPECT_EQ(rail->device, "vb");
  EXPECT_EQ(rail->line, 5);
  EXPECT_NE(rail->message.find("supply range"), std::string::npos);

  const long factors_before = an::factor_call_count();
  const auto op = an::solve_op(nl);
  EXPECT_FALSE(op.converged);
  EXPECT_EQ(op.diag.status, an::SolveStatus::kBadTopology);
  EXPECT_EQ(op.diag.stage, "lint");
  EXPECT_EQ(an::factor_call_count(), factors_before);
}

TEST(ValueRange, DeadDeviceWarnsAndStrictRejectsBeforeFactor) {
  auto parsed = spice::parse_netlist_file(fault_path("dead_device.sp"));
  auto& nl = *parsed.netlist;
  nl.assign_unknowns();
  an::register_analysis_lint_passes();

  const auto issues = ckt::lint(nl);
  EXPECT_FALSE(ckt::lint_has_errors(issues));
  const auto* dead = find_issue(issues, ckt::LintKind::kDeadDevice);
  ASSERT_NE(dead, nullptr);
  EXPECT_EQ(dead->severity, ckt::LintSeverity::kWarning);
  EXPECT_EQ(dead->device, "m1");
  EXPECT_EQ(dead->line, 7);
  EXPECT_NE(dead->message.find("provably off"), std::string::npos);

  // Warnings do not block a normal solve ...
  const auto op = an::solve_op(nl);
  EXPECT_TRUE(op.converged);

  // ... but strict mode rejects before the engine ever factors.
  an::OpOptions strict;
  strict.lint_strict = true;
  const long factors_before = an::factor_call_count();
  const auto op2 = an::solve_op(nl, strict);
  EXPECT_EQ(op2.diag.status, an::SolveStatus::kBadTopology);
  EXPECT_EQ(an::factor_call_count(), factors_before);
}

TEST(ValueRange, MicBoundsContainTheSolvedOpAtEveryGainCode) {
  // Soundness over the switch-code family: the analysis treats each
  // MOS switch as the [r_on, r_off] union, so ONE report's bounds must
  // contain the solved operating point at every PGA gain code.
  auto rig = bench::make_mic_rig();
  rig->nl.assign_unknowns();
  const auto rep = an::range_analysis(rig->nl);
  ASSERT_TRUE(rep.supply_bounded);
  EXPECT_TRUE(rep.rail_violations.empty());

  for (int code = 0; code <= 5; ++code) {
    rig->mic.set_gain_code(code);
    const auto op = an::solve_op(rig->nl);
    ASSERT_TRUE(op.converged) << "gain code " << code;
    for (int n = 1; n < rig->nl.node_count(); ++n) {
      const auto& iv = rep.bounds[rig->nl.node_unknown(n)];
      const double slack =
          1e-6 * std::max(1.0, iv.bounded() ? iv.mag() : 0.0);
      EXPECT_GE(op.v(n), iv.lo - slack)
          << "code " << code << " node " << rig->nl.node_name(n);
      EXPECT_LE(op.v(n), iv.hi + slack)
          << "code " << code << " node " << rig->nl.node_name(n);
    }
  }
}

TEST(ValueRange, CorpusRigsAndExamplesAreVerdictSilent) {
  an::register_analysis_lint_passes();
  auto expect_silent = [](ckt::Netlist& nl, const std::string& label) {
    nl.assign_unknowns();
    const auto issues = ckt::lint(nl);
    for (const auto& i : issues) {
      EXPECT_NE(i.kind, ckt::LintKind::kRailViolation)
          << label << ": " << i.message;
      EXPECT_NE(i.kind, ckt::LintKind::kDeadDevice)
          << label << ": " << i.message;
      EXPECT_NE(i.kind, ckt::LintKind::kConditioning)
          << label << ": " << i.message;
    }
  };

  auto mic = bench::make_mic_rig();
  expect_silent(mic->nl, "mic");
  auto chip = bench::make_chip_rig();
  expect_silent(chip->nl, "chip");
  auto drv = bench::make_drv_rig();
  expect_silent(drv->nl, "drv");

  const char* examples[] = {"bandgap_core.sp", "pga_ladder.sp",
                            "rc_filter.sp"};
  for (const char* name : examples) {
    auto parsed = spice::parse_netlist_file(
        std::string(MSIM_TEST_DIR) + "/../examples/netlists/" + name);
    expect_silent(*parsed.netlist, name);
  }
}

// The conditioning forecast as range_analysis computed it from a dense
// n x n assembly: same point (bound midpoints), same column scales,
// same guard, row maxima over every column.
double dense_forecast(const ckt::Netlist& nl, const an::RangeReport& rep) {
  const int n = nl.unknown_count();
  const int node_rows = nl.node_count() - 1;
  num::RealVector x(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    x[static_cast<std::size_t>(i)] =
        rep.bounds[static_cast<std::size_t>(i)].mid();
  num::RealMatrix jac;
  num::RealVector rhs;
  an::AssembleParams p;
  p.temp_k = an::RangeOptions{}.temp_k;
  an::assemble_real(nl, x, p, jac, rhs);
  double vmax = 1.0;
  for (const auto& iv : rep.bounds)
    if (iv.bounded()) vmax = std::max(vmax, iv.mag());
  if (rep.supply_bounded) vmax = std::max(vmax, rep.supply_hull.mag());
  const double vfloor = 1e-6 * vmax;
  std::vector<double> vscale(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const num::Interval iv = rep.bounds[static_cast<std::size_t>(i)];
    vscale[static_cast<std::size_t>(i)] =
        iv.bounded() ? std::max(iv.mag(), vfloor)
        : i < node_rows && rep.supply_bounded
            ? std::max(rep.supply_hull.mag(), vfloor)
            : std::max(1.0, vfloor);
  }
  const double guard = 10.0 * p.gshunt;
  double rmax = 0.0;
  double rmin = std::numeric_limits<double>::infinity();
  for (int r = 0; r < n; ++r) {
    double m = 0.0;
    for (int c = 0; c < n; ++c) {
      const double a = std::abs(
          jac(static_cast<std::size_t>(r), static_cast<std::size_t>(c)));
      if (a > guard) m = std::max(m, a * vscale[static_cast<std::size_t>(c)]);
    }
    if (m == 0.0) continue;
    rmax = std::max(rmax, m);
    rmin = std::min(rmin, m);
  }
  return rmax > 0.0 && std::isfinite(rmin) && rmin > 0.0 ? rmax / rmin : 0.0;
}

// Runs range_analysis on `a` and the dense reference on its twin `b`.
// A stamp updates nonlinear devices' limiting state, so the twins must
// stamp alike: `b` builds the skeleton too (debug builds check every
// device's stamp contract, by stamping it, when a skeleton is built).
void expect_dense_forecast(const ckt::Netlist& a, const ckt::Netlist& b,
                           const std::string& label) {
  const auto rep = an::range_analysis(a);
  an::mna_skeleton(b);
  const double ref = dense_forecast(b, rep);
  EXPECT_EQ(rep.cond_available, ref > 0.0) << label;
  // Bit for bit: entries accumulate in device order on both targets and
  // a row maximum is exact.
  EXPECT_EQ(rep.cond_forecast, ref) << label;
}

// The forecast reads the row maxima off the CSR skeleton -- searched on a
// fresh netlist, replayed from the op solve's slot tables afterwards --
// and must equal the dense assembly's bit for bit on every deck.
TEST(ValueRange, SparseConditioningForecastEqualsDense) {
  std::vector<std::string> decks;
  for (const char* dir : {"/faults", "/../examples/netlists"})
    for (const auto& e :
         std::filesystem::directory_iterator(std::string(MSIM_TEST_DIR) + dir))
      if (e.path().extension() == ".sp") decks.push_back(e.path().string());
  std::sort(decks.begin(), decks.end());
  ASSERT_GE(decks.size(), 13u);
  an::OpOptions no_lint;
  no_lint.lint = false;
  int solved = 0;
  for (const auto& path : decks) {
    auto a = spice::parse_netlist_file(path);
    auto b = spice::parse_netlist_file(path);
    a.netlist->assign_unknowns();
    b.netlist->assign_unknowns();
    expect_dense_forecast(*a.netlist, *b.netlist, path + " (cold)");
    const bool ok = an::solve_op(*a.netlist, no_lint).converged;
    ASSERT_EQ(an::solve_op(*b.netlist, no_lint).converged, ok) << path;
    if (!ok) continue;
    ++solved;
    expect_dense_forecast(*a.netlist, *b.netlist, path + " (after op)");
  }
  EXPECT_GE(solved, 5);

  auto a = bench::make_mic_rig();
  auto b = bench::make_mic_rig();
  a->nl.assign_unknowns();
  b->nl.assign_unknowns();
  expect_dense_forecast(a->nl, b->nl, "mic (cold)");
  for (int code = 0; code <= 5; ++code) {
    for (auto* rig : {a.get(), b.get()}) {
      rig->mic.set_gain_code(code);
      ASSERT_TRUE(an::solve_op(rig->nl).converged) << "gain code " << code;
    }
    // A solved netlist's forecast replays the cached slot tables.
    const long searches = num::sparse_search_count();
    expect_dense_forecast(a->nl, b->nl, "mic code " + std::to_string(code));
    EXPECT_EQ(num::sparse_search_count(), searches) << "gain code " << code;
  }
}

TEST(ValueRange, RailViolationMessageKeepsLongNodeNames) {
  // rail_violation.sp with a 150-character bias node: the message
  // carries the whole name and still ends with the supply range (it
  // used to be cut at 191 bytes).
  ckt::Netlist nl;
  const std::string name(150, 'n');
  const auto vdd = nl.node("vdd"), a = nl.node("a"), nb = nl.node(name);
  nl.add<dev::VSource>("vdd", vdd, ckt::kGround, 2.6);
  nl.add<dev::VSource>("vb", nb, ckt::kGround, 3.4);
  nl.add<dev::Resistor>("r1", vdd, a, 10e3);
  nl.add<dev::Resistor>("r2", a, ckt::kGround, 10e3);
  nl.add<dev::Resistor>("r3", nb, a, 100e3);
  nl.assign_unknowns();
  const auto rep = an::range_analysis(nl);
  ASSERT_EQ(rep.rail_violations.size(), 1u);
  EXPECT_EQ(rep.rail_violations[0].message,
            "node '" + name +
                "' is provably confined to [3.4, 3.4] V, entirely above "
                "the supply range [0, 2.6] V");
}

TEST(ValueRange, JsonReportIsStructured) {
  ckt::Netlist nl;
  const auto vdd = nl.node("vdd");
  const auto mid = nl.node("mid");
  nl.add<dev::VSource>("vdd", vdd, ckt::kGround, 2.6);
  nl.add<dev::Resistor>("r1", vdd, mid, 1e3);
  nl.add<dev::Resistor>("r2", mid, ckt::kGround, 1e3);
  nl.assign_unknowns();

  const std::string json = an::range_json(an::range_analysis(nl));
  EXPECT_NE(json.find("\"converged\":true"), std::string::npos);
  EXPECT_NE(json.find("\"supply\":{\"bounded\":true"), std::string::npos);
  EXPECT_NE(json.find("\"headroom\":["), std::string::npos);
  EXPECT_NE(json.find("\"rail_violations\":[]"), std::string::npos);
  EXPECT_NE(json.find("\"dead_devices\":[]"), std::string::npos);
  EXPECT_NE(json.find("\"conditioning\":{"), std::string::npos);

  const std::string text = an::range_text(an::range_analysis(nl));
  EXPECT_NE(text.find("value-range"), std::string::npos);
}

TEST(ValueRange, JsonReportWritesNonFiniteAsNull) {
  // A zero-ohm resistor drives the conditioning forecast to infinity;
  // the report must stay valid JSON.
  auto parsed = spice::parse_netlist_file(fault_path("nan_resistor.sp"));
  auto& nl = *parsed.netlist;
  nl.assign_unknowns();
  const std::string json = an::range_json(an::range_analysis(nl));
  EXPECT_NE(json.find("\"forecast\":null"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
}

TEST(LintFramework, RangePassesCanBeDisabledByNameAndByKind) {
  auto parsed = spice::parse_netlist_file(fault_path("rail_violation.sp"));
  auto& nl = *parsed.netlist;
  nl.assign_unknowns();
  an::register_analysis_lint_passes();

  ASSERT_TRUE(ckt::lint_has_errors(ckt::lint(nl)));

  // Disable by pass name.
  ckt::LintOptions by_name;
  by_name.disable = {"value_range"};
  EXPECT_FALSE(
      has_issue(ckt::lint(nl, by_name), ckt::LintKind::kRailViolation));

  // Disable by kind string.
  ckt::LintOptions by_kind;
  by_kind.disable = {"rail_violation"};
  EXPECT_FALSE(
      has_issue(ckt::lint(nl, by_kind), ckt::LintKind::kRailViolation));

  // Default options re-arm the pass: disabling is per-invocation, not
  // sticky registry state.
  EXPECT_TRUE(has_issue(ckt::lint(nl), ckt::LintKind::kRailViolation));
}

TEST(LintFramework, ErrorsOrderBeforeWarningsAcrossPasses) {
  // A netlist with both a rail-violation ERROR and a dangling-terminal
  // WARNING: the report must list every error before any warning, and
  // the relative order within a severity class must be stable.
  ckt::Netlist nl;
  const auto vdd = nl.node("vdd");
  const auto nb = nl.node("nb");
  const auto a = nl.node("a");
  const auto stub = nl.node("stub");
  nl.add<dev::VSource>("vdd", vdd, ckt::kGround, 2.6);
  nl.add<dev::VSource>("vb", nb, ckt::kGround, 3.4);
  nl.add<dev::Resistor>("r1", vdd, a, 1e4);
  nl.add<dev::Resistor>("r2", a, ckt::kGround, 1e4);
  nl.add<dev::Resistor>("r3", nb, a, 1e5);
  nl.add<dev::Resistor>("r4", a, stub, 1e4);
  nl.assign_unknowns();
  an::register_analysis_lint_passes();

  const auto issues = ckt::lint(nl);
  ASSERT_TRUE(has_issue(issues, ckt::LintKind::kRailViolation));
  ASSERT_TRUE(has_issue(issues, ckt::LintKind::kDanglingTerminal));
  bool seen_warning = false;
  for (const auto& i : issues) {
    if (i.severity == ckt::LintSeverity::kWarning) seen_warning = true;
    if (i.severity == ckt::LintSeverity::kError) {
      EXPECT_FALSE(seen_warning)
          << "error listed after a warning: " << i.message;
    }
  }
  EXPECT_EQ(issues.front().severity, ckt::LintSeverity::kError);
}

TEST(Preflight, RangeVerdictCachedAndInheritedThroughAdoption) {
  // The range passes ride the same clean-verdict cache as the
  // structural passes: a clean solve caches the verdict under the
  // topology fingerprint, adopting samples inherit it, and the armed
  // passes never force a per-sample re-run.
  auto nominal = bench::make_mic_rig();
  const auto op = an::solve_op(nominal->nl);
  ASSERT_TRUE(op.converged);

  auto sample = bench::make_mic_rig();
  sample->nl.adopt_solver_cache(nominal->nl);
  const long full_runs = an::preflight_full_runs();
  const auto op2 = an::solve_op(sample->nl);
  ASSERT_TRUE(op2.converged);
  EXPECT_EQ(an::preflight_full_runs(), full_runs);

  // A faulty netlist is never verdict-cached: each solve re-pays the
  // full pre-pass and is rejected again.
  auto parsed = spice::parse_netlist_file(fault_path("rail_violation.sp"));
  auto& bad = *parsed.netlist;
  bad.assign_unknowns();
  const long bad_runs = an::preflight_full_runs();
  EXPECT_FALSE(an::solve_op(bad).converged);
  EXPECT_FALSE(an::solve_op(bad).converged);
  EXPECT_EQ(an::preflight_full_runs(), bad_runs + 2);
}

}  // namespace
