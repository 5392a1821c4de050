// Operating-point solver robustness: homotopy fallbacks, pathological
// circuits, initial-guess reuse, the Monte-Carlo operating-point seed,
// and structured failure diagnostics
// (SolveDiag) exercised through the fault-injection netlists under
// tests/faults/.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>
#include <vector>

#include "analysis/ac.h"
#include "analysis/montecarlo.h"
#include "analysis/noise.h"
#include "analysis/op.h"
#include "analysis/sample_loop.h"
#include "analysis/sweep.h"
#include "analysis/transient.h"
#include "bench_util.h"
#include "core/bias.h"
#include "circuit/lint.h"
#include "circuit/netlist.h"
#include "devices/bjt.h"
#include "devices/diode.h"
#include "devices/mosfet.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "numeric/units.h"
#include "process/process.h"
#include "spicefmt/parser.h"

namespace {

using namespace msim;

std::string fault_path(const char* name) {
  return std::string(MSIM_TEST_DIR) + "/faults/" + name;
}

TEST(OpRobustness, DiodeStackFromColdStart) {
  // Six series diodes across 4 V: strongly nonlinear, needs limiting.
  ckt::Netlist nl;
  const auto top = nl.node("n0");
  nl.add<dev::VSource>("V1", top, ckt::kGround, 4.0);
  ckt::NodeId prev = top;
  for (int i = 0; i < 6; ++i) {
    const auto next = (i == 5) ? ckt::kGround
                               : nl.node("n" + std::to_string(i + 1));
    nl.add<dev::Diode>("D" + std::to_string(i), prev, next,
                       dev::DiodeParams{});
    prev = next;
  }
  const auto op = an::solve_op(nl);
  ASSERT_TRUE(op.converged);
  // Each diode drops ~0.66 V at the resulting small current.
  EXPECT_NEAR(op.v(nl, "n3"), 4.0 / 2.0, 0.4);
}

TEST(OpRobustness, CmosLatchHasStableSolution) {
  // Cross-coupled inverters (bistable): the solver must settle into one
  // of the valid states, not oscillate forever.
  ckt::Netlist nl;
  const auto vdd = nl.node("vdd");
  const auto a = nl.node("a");
  const auto b = nl.node("b");
  const auto pm = proc::ProcessModel::cmos12();
  nl.add<dev::VSource>("Vdd", vdd, ckt::kGround, 3.0);
  auto inv = [&](const char* n, ckt::NodeId in, ckt::NodeId out) {
    nl.add<dev::Mosfet>(std::string("MP") + n, out, in, vdd, vdd,
                        pm.pmos(), 20e-6, 2e-6);
    nl.add<dev::Mosfet>(std::string("MN") + n, out, in, ckt::kGround,
                        ckt::kGround, pm.nmos(), 10e-6, 2e-6);
  };
  inv("1", a, b);
  inv("2", b, a);
  // Small asymmetry to pick a state.
  nl.add<dev::Resistor>("Rk", vdd, a, 10e6);
  const auto op = an::solve_op(nl);
  ASSERT_TRUE(op.converged);
  const double va = op.v(a), vb = op.v(b);
  // One side high, other low (or the metastable point; exclude it).
  EXPECT_GT(std::abs(va - vb), 2.0);
}

TEST(OpRobustness, InitialGuessAcceleratesResolve) {
  ckt::Netlist nl;
  const auto vdd = nl.node("vdd");
  const auto g = nl.node("g");
  const auto d = nl.node("d");
  const auto pm = proc::ProcessModel::cmos12();
  nl.add<dev::VSource>("Vdd", vdd, ckt::kGround, 3.0);
  nl.add<dev::VSource>("Vg", g, ckt::kGround, 1.0);
  nl.add<dev::Resistor>("RL", vdd, d, 10e3);
  nl.add<dev::Mosfet>("M1", d, g, ckt::kGround, ckt::kGround, pm.nmos(),
                      50e-6, 2e-6);
  const auto op1 = an::solve_op(nl);
  ASSERT_TRUE(op1.converged);
  an::OpOptions warm;
  warm.initial_guess = op1.x;
  const auto op2 = an::solve_op(nl, warm);
  ASSERT_TRUE(op2.converged);
  EXPECT_LE(op2.iterations, op1.iterations);
  EXPECT_LE(op2.iterations, 3);
}

// ---- operating-point seed (Netlist::adopt_op_seed) -------------------

// Builds one Table-1 Monte-Carlo sample: the mic rig at gain code 3
// with both resistor strings perturbed from `rng`.
void build_table1_sample(num::Rng& rng, ckt::Netlist& nl) {
  const auto pm = proc::ProcessModel::cmos12();
  auto parts = bench::build_mic_into(nl, {}, pm);
  bench::perturb_mic_strings(parts.mic, pm, rng);
  parts.mic.set_gain_code(3);
}

// Sample i of a fixed Table-1 set, drawn from RNG stream 1000 + i.
void build_table1_sample_at(std::size_t i, ckt::Netlist& nl) {
  num::Rng rng(1000 + i);
  build_table1_sample(rng, nl);
}

// Two converged operating points of one circuit agree to the tolerance
// Newton stops at (kNewtonVtol + kNewtonReltol * |x| per unknown).
void expect_same_op(const an::OpResult& got, const an::OpResult& ref,
                    const char* what) {
  ASSERT_EQ(got.x.size(), ref.x.size()) << what;
  for (std::size_t k = 0; k < ref.x.size(); ++k)
    EXPECT_NEAR(got.x[k], ref.x[k],
                an::kNewtonVtol + an::kNewtonReltol * std::abs(ref.x[k]))
        << what << ", unknown " << k;
}

// A 20-sample Table-1 batch as the table1-mc workload runs it: sample 0
// solves from zero (17 iterations), every later sample starts from its
// operating point and needs at most two.
TEST(OpSeed, Table1BatchSpendsAtMostTwoIterationsPerSeededSample) {
  num::Rng rng(1);
  an::McOptions mo;
  mo.threads = 1;  // samples run in order
  std::vector<int> iterations;
  const an::McStats st = an::monte_carlo_shared(
      20, rng, build_table1_sample,
      [&](ckt::Netlist& nl) {
        const auto op = an::solve_op(nl);
        iterations.push_back(op.iterations);
        return op.converged ? an::McTrial::of(0.0)
                            : an::McTrial::failed(op.diag);
      },
      mo);
  ASSERT_EQ(st.failures, 0);
  ASSERT_EQ(iterations.size(), 20u);
  EXPECT_LE(iterations[0], 17);
  EXPECT_LE(std::accumulate(iterations.begin(), iterations.end(), 0),
            17 + 2 * 19)
      << ::testing::PrintToString(iterations);
}

// The seed changes where Newton starts, not where it lands: every seeded
// sample's operating point matches a cold solve of the same sample.
TEST(OpSeed, SeededSamplesMatchTheirColdSolves) {
  constexpr std::size_t kSamples = 12;
  std::vector<an::OpResult> seeded(kSamples);
  an::run_samples(kSamples, {}, false, build_table1_sample_at,
                  [&](std::size_t i, ckt::Netlist& nl) {
                    seeded[i] = an::solve_op(nl);
                  });
  for (std::size_t i = 1; i < kSamples; ++i) {
    ckt::Netlist nl;
    build_table1_sample_at(i, nl);
    const auto cold = an::solve_op(nl);
    ASSERT_TRUE(cold.converged && seeded[i].converged) << "sample " << i;
    EXPECT_LT(seeded[i].iterations, cold.iterations) << "sample " << i;
    expect_same_op(seeded[i], cold, "mic sample");
  }
}

// The bandgap core has a second, zero-current operating point.  Seeded
// from sample 0, every perturbed sample still lands on the state a cold
// solve finds.
TEST(OpSeed, BandgapSamplesLandOnTheColdState) {
  const std::string text = [] {
    std::ifstream in(std::string(MSIM_TEST_DIR) +
                     "/../examples/netlists/bandgap_core.sp");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }();
  // The --mc spread on resistors, plus MOS threshold and beta mismatch.
  const auto build = [&](std::size_t i, ckt::Netlist& nl) {
    nl = std::move(*spice::parse_netlist(text).netlist);
    num::Rng r(77 + i);
    for (const auto& d : nl.devices()) {
      if (auto* res = dynamic_cast<dev::Resistor*>(d.get()))
        res->set_resistance(res->nominal_resistance() *
                            (1.0 + 0.01 * r.normal()));
      if (auto* m = dynamic_cast<dev::Mosfet*>(d.get()))
        m->apply_mismatch(r.normal(0.0, 5e-3), r.normal(0.0, 0.02));
    }
  };
  constexpr std::size_t kSamples = 24;
  std::vector<an::OpResult> seeded(kSamples);
  an::run_samples(kSamples, {}, false, build,
                  [&](std::size_t i, ckt::Netlist& nl) {
                    seeded[i] = an::solve_op(nl);
                  });
  for (std::size_t i = 0; i < kSamples; ++i) {
    ckt::Netlist nl;
    build(i, nl);
    const auto cold = an::solve_op(nl);
    ASSERT_TRUE(cold.converged && seeded[i].converged) << "sample " << i;
    if (i > 0) {
      EXPECT_LT(seeded[i].iterations, cold.iterations) << "sample " << i;
    }
    expect_same_op(seeded[i], cold, "bandgap sample");
  }
}

// A netlist never seeds itself: solving it again starts from zero and
// takes the same path; only adopt_op_seed hands a solution over.
TEST(OpSeed, RepeatedSolveOfOneNetlistStartsFromZero) {
  ckt::Netlist nl;
  build_table1_sample_at(0, nl);
  const auto first = an::solve_op(nl);
  const auto again = an::solve_op(nl);
  ASSERT_TRUE(first.converged && again.converged);
  EXPECT_EQ(again.iterations, first.iterations);
  EXPECT_EQ(again.x, first.x);
  EXPECT_EQ(nl.op_solution(), first.x);
  EXPECT_TRUE(nl.op_seed().empty());

  ckt::Netlist cold, seeded;
  build_table1_sample_at(1, cold);
  build_table1_sample_at(1, seeded);
  seeded.adopt_op_seed(nl);
  EXPECT_EQ(seeded.op_seed(), first.x);
  // An explicit initial_guess still wins over the seed.
  an::OpOptions from_zero;
  from_zero.initial_guess.assign(first.x.size(), 0.0);
  const auto ref = an::solve_op(cold);
  const auto got = an::solve_op(seeded, from_zero);
  EXPECT_EQ(got.iterations, ref.iterations);
  EXPECT_EQ(got.x, ref.x);
}

TEST(OpRobustness, ContinuationTracksSteepTransferCurve) {
  // CMOS inverter VTC: the high-gain transition needs continuation.
  ckt::Netlist nl;
  const auto vdd = nl.node("vdd");
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  const auto pm = proc::ProcessModel::cmos12();
  nl.add<dev::VSource>("Vdd", vdd, ckt::kGround, 3.0);
  auto* vin = nl.add<dev::VSource>("Vin", in, ckt::kGround, 0.0);
  nl.add<dev::Mosfet>("MP", out, in, vdd, vdd, pm.pmos(), 20e-6, 1.2e-6);
  nl.add<dev::Mosfet>("MN", out, in, ckt::kGround, ckt::kGround,
                      pm.nmos(), 10e-6, 1.2e-6);
  const auto sweep = an::dc_sweep(
      nl, an::linspace(0.0, 3.0, 61),
      [&](double v) { vin->set_waveform(dev::Waveform::dc(v)); },
      an::OpOptions{});
  double prev = 3.0;
  for (const auto& pt : sweep) {
    ASSERT_TRUE(pt.op.converged) << "vin=" << pt.value;
    const double vo = pt.op.v(out);
    EXPECT_LE(vo, prev + 1e-6);  // monotone falling VTC
    prev = vo;
  }
  EXPECT_GT(sweep.front().op.v(out), 2.9);
  EXPECT_LT(sweep.back().op.v(out), 0.1);
}

// ---- fault injection: structured diagnostics ------------------------

TEST(FaultInjection, ParallelVsourcesSingularMatrixNamesUnknown) {
  auto parsed = spice::parse_netlist_file(fault_path("vloop.sp"));
  an::OpOptions opt;
  opt.lint = false;  // reach the matrix to exercise the LU diagnosis
  const auto op = an::solve_op(*parsed.netlist, opt);
  EXPECT_FALSE(op.converged);
  EXPECT_EQ(op.diag.status, an::SolveStatus::kSingularMatrix);
  EXPECT_EQ(op.diag.unknown, "i(v2)");
  EXPECT_EQ(op.diag.device, "v2");
  EXPECT_EQ(op.diag.stage, "newton");
}

TEST(FaultInjection, ParallelVsourcesCaughtByLintBeforeAssembly) {
  auto parsed = spice::parse_netlist_file(fault_path("vloop.sp"));
  const auto issues = ckt::lint(*parsed.netlist);
  ASSERT_TRUE(ckt::lint_has_errors(issues));
  EXPECT_EQ(issues.front().kind, ckt::LintKind::kVoltageLoop);
  EXPECT_EQ(issues.front().device, "v2");

  const auto op = an::solve_op(*parsed.netlist);  // lint on by default
  EXPECT_FALSE(op.converged);
  EXPECT_EQ(op.diag.status, an::SolveStatus::kBadTopology);
  EXPECT_EQ(op.diag.stage, "lint");
  EXPECT_NE(op.diag.detail.find("voltage_loop"), std::string::npos);
}

TEST(FaultInjection, FloatingNodeNamedByLintAndByNonConvergence) {
  auto parsed = spice::parse_netlist_file(fault_path("floating_node.sp"));
  const auto issues = ckt::lint(*parsed.netlist);
  ASSERT_FALSE(ckt::lint_has_errors(issues));  // warning, not error
  bool found = false;
  for (const auto& i : issues)
    if (i.kind == ckt::LintKind::kFloatingNode && i.node == "float")
      found = true;
  EXPECT_TRUE(found);

  // Strict lint escalates the warning to a structured topology failure.
  an::OpOptions strict;
  strict.lint_strict = true;
  const auto op_strict = an::solve_op(*parsed.netlist, strict);
  EXPECT_FALSE(op_strict.converged);
  EXPECT_EQ(op_strict.diag.status, an::SolveStatus::kBadTopology);
  EXPECT_NE(op_strict.diag.detail.find("float"), std::string::npos);

  // Default (permissive) solve fails to converge chasing the
  // gshunt-regularized megavolt node, and names exactly that node.
  const auto op = an::solve_op(*parsed.netlist);
  EXPECT_FALSE(op.converged);
  EXPECT_EQ(op.diag.status, an::SolveStatus::kNonConvergence);
  EXPECT_EQ(op.diag.unknown, "v(float)");
  EXPECT_GT(op.diag.residual, 0.0);
  EXPECT_GT(op.diag.iterations, 0);
}

TEST(FaultInjection, ZeroOhmResistorProducesNonFiniteDiag) {
  auto parsed = spice::parse_netlist_file(fault_path("nan_resistor.sp"));
  const auto op = an::solve_op(*parsed.netlist);
  EXPECT_FALSE(op.converged);
  EXPECT_EQ(op.diag.status, an::SolveStatus::kNonFinite);
  EXPECT_EQ(op.diag.unknown, "v(a)");
  EXPECT_FALSE(op.diag.device.empty());
}

TEST(FaultInjection, DuplicateDeviceNamesAreATopologyError) {
  auto parsed =
      spice::parse_netlist_file(fault_path("duplicate_names.sp"));
  const auto op = an::solve_op(*parsed.netlist);
  EXPECT_FALSE(op.converged);
  EXPECT_EQ(op.diag.status, an::SolveStatus::kBadTopology);
  EXPECT_EQ(op.diag.device, "r1");
  EXPECT_NE(op.diag.detail.find("duplicate_name"), std::string::npos);
}

TEST(FaultInjection, DanglingTerminalWarnsButStillSolves) {
  auto parsed =
      spice::parse_netlist_file(fault_path("dangling_terminal.sp"));
  const auto issues = ckt::lint(*parsed.netlist);
  ASSERT_FALSE(ckt::lint_has_errors(issues));
  bool found = false;
  for (const auto& i : issues)
    if (i.kind == ckt::LintKind::kDanglingTerminal && i.node == "stub")
      found = true;
  EXPECT_TRUE(found);

  const auto op = an::solve_op(*parsed.netlist);
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(op.v(*parsed.netlist, "stub"), 1.0, 1e-6);
}

TEST(FaultInjection, AcSingularMatrixReportsDiagInsteadOfThrow) {
  ckt::Netlist nl;
  const auto a = nl.node("a");
  nl.add<dev::VSource>("V1", a, ckt::kGround,
                       dev::Waveform::dc(1.0).with_ac(1.0));
  nl.add<dev::VSource>("V2", a, ckt::kGround, 1.0);
  nl.add<dev::Resistor>("R1", a, ckt::kGround, 1e3);

  // Default path: the static pre-pass rejects the V-loop before any
  // complex system is assembled.
  const auto pre = an::run_ac_diag(nl, {1e3});
  EXPECT_FALSE(pre.ok());
  EXPECT_EQ(pre.diag.status, an::SolveStatus::kBadTopology);
  EXPECT_EQ(pre.diag.stage, "lint");

  // With the pre-pass off, the factorization itself still produces the
  // structured zero-pivot diagnosis (LU-diagnosis coverage).
  an::AcOptions no_lint;
  no_lint.lint = false;
  const auto ac = an::run_ac_diag(nl, {1e3}, no_lint);
  EXPECT_FALSE(ac.ok());
  EXPECT_EQ(ac.diag.status, an::SolveStatus::kSingularMatrix);
  EXPECT_EQ(ac.diag.unknown, "i(V2)");
  EXPECT_EQ(ac.diag.stage, "ac");
  // The historical API still throws, carrying the structured message.
  EXPECT_THROW(an::run_ac(nl, {1e3}), std::runtime_error);
}

TEST(FaultInjection, NoiseWithoutOutputNodeIsBadTopology) {
  ckt::Netlist nl;
  nl.add<dev::Resistor>("R1", nl.node("a"), ckt::kGround, 1e3);
  const auto res = an::run_noise_diag(nl, {1e3}, an::NoiseOptions{});
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.diag.status, an::SolveStatus::kBadTopology);
}

TEST(FaultInjection, MonteCarloCollectsPerSampleDiagnostics) {
  num::Rng rng(7);
  int k = 0;
  const auto stats = an::monte_carlo_shared(
      6, rng, [](num::Rng&, ckt::Netlist&) {},
      [&](ckt::Netlist&) -> an::McTrial {
        if (++k % 2 == 0) {
          an::SolveDiag d;
          d.status = an::SolveStatus::kNonConvergence;
          d.unknown = "v(x)";
          return an::McTrial::failed(d);
        }
        return an::McTrial::of(1.0);
      });
  EXPECT_EQ(stats.samples.size(), 3u);
  EXPECT_EQ(stats.failures, 3);
  ASSERT_EQ(stats.failure_diags.size(), 3u);
  EXPECT_EQ(stats.failure_diags[0].sample, 1);
  EXPECT_EQ(stats.failure_diags[0].diag.unknown, "v(x)");
  const auto causes = stats.failure_causes();
  EXPECT_EQ(causes.at("non_convergence"), 3);
}

// ---- transient step rejection and recovery --------------------------

TEST(TranRecovery, FixedStepHalvesThroughNewtonFailure) {
  // Diode rectifier with a starved Newton budget: full-dt steps across
  // the steep conduction edge fail, the halving recovery must finish
  // the run anyway and account for every rejection.
  ckt::Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add<dev::VSource>("Vin", in, ckt::kGround,
                       dev::Waveform::sine(0.0, 2.0, 1e3));
  nl.add<dev::Diode>("D1", in, out, dev::DiodeParams{});
  nl.add<dev::Resistor>("RL", out, ckt::kGround, 1e4);
  nl.add<dev::Capacitor>("CL", out, ckt::kGround, 1e-9);
  an::TranOptions t;
  t.t_stop = 1e-3;
  t.dt = 25e-6;
  t.max_newton = 4;     // starve Newton at full dt
  t.max_step = 0.05;
  const auto r = an::run_transient(nl, t);
  ASSERT_TRUE(r.ok) << r.diag.message();
  EXPECT_EQ(r.telemetry.op_method, "newton");
  EXPECT_GT(r.telemetry.rejected_newton, 0);
  EXPECT_GT(r.telemetry.accepted_steps, 0);
  EXPECT_GT(r.telemetry.newton_iterations, r.telemetry.accepted_steps);
  EXPECT_LT(r.telemetry.min_dt_used, t.dt);
  // The recorded grid still lands on the fixed base step boundaries.
  EXPECT_NEAR(r.time.back(), t.t_stop, 1e-12);
}

TEST(TranRecovery, UnrecoverableStepReportsStructuredDiag) {
  // A pulse edge too steep for the starved Newton budget at any dt:
  // recovery must give up with a kNonConvergence diag at stage "tran",
  // not crash or silently truncate.
  ckt::Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add<dev::VSource>("Vin", in, ckt::kGround,
                       dev::Waveform::pulse(0.0, 3.0, 10e-6, 1e-12,
                                            1e-12, 50e-6, 100e-6));
  nl.add<dev::Resistor>("R1", in, out, 1e3);
  nl.add<dev::Capacitor>("C1", out, ckt::kGround, 1e-9);
  an::TranOptions t;
  t.t_stop = 100e-6;
  t.dt = 5e-6;
  t.max_newton = 1;    // cannot absorb the 3 V jump with max_step 0.01
  t.max_step = 0.01;
  t.max_halvings = 4;
  // This RC netlist is linear, and the linear fast path would solve the
  // pulse edge exactly in one step; force the damped-Newton path, whose
  // give-up diagnostics are under test here.
  t.linear_fast_path = false;
  const auto r = an::run_transient(nl, t);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.diag.status, an::SolveStatus::kNonConvergence);
  EXPECT_EQ(r.diag.stage, "tran");
  EXPECT_FALSE(r.diag.unknown.empty());
  EXPECT_NE(r.diag.detail.find("step rejected"), std::string::npos);
  EXPECT_GT(r.telemetry.rejected_newton, 0);
}

TEST(OpRobustness, ReportsFailureNotCrashOnOpenCurrentSource) {
  // A current source driving only a capacitor has no physical DC
  // solution (the gshunt-regularized voltage is ~1e9 V, far outside any
  // reachable range).  The contract is graceful failure: converged =
  // false, no crash, no exception.
  ckt::Netlist nl;
  const auto a = nl.node("a");
  nl.add<dev::ISource>("I1", ckt::kGround, a, 1e-3);
  nl.add<dev::Capacitor>("C1", a, ckt::kGround, 1e-9);
  const auto op = an::solve_op(nl);
  EXPECT_FALSE(op.converged);
  // And adding a sane DC path fixes it.
  nl.add<dev::Resistor>("Rfix", a, ckt::kGround, 1e3);
  const auto op2 = an::solve_op(nl);
  ASSERT_TRUE(op2.converged);
  EXPECT_NEAR(op2.v(a), 1.0, 1e-6);
}

TEST(OpRobustness, TemperatureExtremes) {
  // The full bias cell must solve from -40 C to +125 C.
  ckt::Netlist nl;
  const auto vdd = nl.node("vdd");
  const auto vss = nl.node("vss");
  nl.add<dev::VSource>("Vdd", vdd, ckt::kGround, 1.3);
  nl.add<dev::VSource>("Vss", vss, ckt::kGround, -1.3);
  const auto pm = proc::ProcessModel::cmos12();
  core::BiasCircuit bc =
      core::build_bias(nl, pm, core::BiasDesign{}, vdd, vss);
  for (double tc : {-40.0, -20.0, 25.0, 85.0, 125.0}) {
    an::OpOptions opt;
    opt.temp_k = num::celsius_to_kelvin(tc);
    const auto op = an::solve_op(nl, opt);
    ASSERT_TRUE(op.converged) << tc;
    EXPECT_GT(bc.i_probe->current(op.x), 5e-6) << tc;
  }
}

}  // namespace
