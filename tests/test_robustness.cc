// Run budgets, cooperative cancellation, and fault-injection recovery.
//
// Every analysis honors a RunBudget by returning a structured PARTIAL
// result (never an exception): transient keeps the accepted waveform
// plus a restart checkpoint, MC keeps per-sample diagnostics for the
// samples the budget skipped, AC/noise keep the solved grid prefix,
// sweeps mark the points that never ran.  Transient and PSS options
// that would never finish, and AC/noise grids with a point that cannot
// be solved, come back as a diag.  The faultpoint tests walk the
// recovery paths that only fire when something actually breaks: failed
// factorizations, NaN device evaluations, failed cache adoption, and
// the sparse solver's iterative-refinement health monitor.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/ac.h"
#include "analysis/montecarlo.h"
#include "analysis/noise.h"
#include "analysis/op.h"
#include "analysis/pss.h"
#include "analysis/sweep.h"
#include "analysis/transient.h"
#include "circuit/lint.h"
#include "circuit/netlist.h"
#include "core/budget.h"
#include "core/faultpoint.h"
#include "devices/diode.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "numeric/rng.h"
#include "spicefmt/parser.h"

namespace {

using namespace msim;

std::string fault_path(const char* name) {
  return std::string(MSIM_TEST_DIR) + "/faults/" + name;
}

// Series diode stack: nonlinear enough that Newton needs several
// iterations, so iteration-cap budgets can expire mid-solve.
void build_diode_stack(ckt::Netlist& nl) {
  const auto top = nl.node("n0");
  nl.add<dev::VSource>("V1", top, ckt::kGround, 3.0);
  ckt::NodeId prev = top;
  for (int i = 0; i < 4; ++i) {
    const auto next = (i == 3) ? ckt::kGround
                               : nl.node("n" + std::to_string(i + 1));
    nl.add<dev::Diode>(std::string("D").append(std::to_string(i)), prev,
                       next, dev::DiodeParams{});
    prev = next;
  }
}

// RC low-pass driven by a sine: linear, cheap, many transient steps.
void build_rc(ckt::Netlist& nl) {
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add<dev::VSource>("Vin", in, ckt::kGround,
                       dev::Waveform::sine(0.0, 1.0, 10e3));
  nl.add<dev::Resistor>("R1", in, out, 1e3);
  nl.add<dev::Capacitor>("C1", out, ckt::kGround, 10e-9);
}

// Monte-Carlo driver tests that need only each sample's RNG stream: the
// draw rides in the sample's netlist as a source value.
void draw_normal(num::Rng& r, ckt::Netlist& nl) {
  nl.add<dev::VSource>("V", nl.node("a"), ckt::kGround, r.normal(0.0, 1.0));
}

an::McTrial drawn_value(ckt::Netlist& nl) {
  return an::McTrial::of(nl.find_as<dev::VSource>("V")->waveform().dc_value());
}

// ---- run budgets: structured partial results ------------------------

TEST(Budget, OpIterationCapReportsBudgetExceeded) {
  ckt::Netlist nl;
  build_diode_stack(nl);
  core::RunBudget budget;
  budget.max_newton_iterations = 2;
  an::OpOptions opt;
  opt.budget = &budget;
  const auto op = an::solve_op(nl, opt);
  EXPECT_FALSE(op.converged);
  EXPECT_EQ(op.diag.status, an::SolveStatus::kBudgetExceeded);
  EXPECT_FALSE(op.diag.detail.empty());
  EXPECT_GE(budget.iterations_used(), 2);
}

TEST(Budget, OpCancelTokenReportsCancelled) {
  ckt::Netlist nl;
  build_diode_stack(nl);
  core::CancelToken cancel;
  cancel.request();
  core::RunBudget budget;
  budget.cancel = &cancel;
  an::OpOptions opt;
  opt.budget = &budget;
  const auto op = an::solve_op(nl, opt);
  EXPECT_FALSE(op.converged);
  EXPECT_EQ(op.diag.status, an::SolveStatus::kCancelled);
}

TEST(Budget, TransientStepCapKeepsWaveformAndCheckpoint) {
  ckt::Netlist nl;
  build_rc(nl);
  core::RunBudget budget;
  budget.max_steps = 10;
  an::TranOptions t;
  t.t_stop = 100e-6;
  t.dt = 1e-6;  // would need 100 steps
  t.budget = &budget;
  const auto r = an::run_transient(nl, t);
  EXPECT_FALSE(r.ok);
  ASSERT_TRUE(r.truncated);
  EXPECT_EQ(r.telemetry.accepted_steps, 10);
  EXPECT_LT(r.t_checkpoint, t.t_stop);
  EXPECT_TRUE(r.telemetry.budget_truncated);
  EXPECT_EQ(r.telemetry.budget_stop, "steps");
  EXPECT_EQ(r.diag.status, an::SolveStatus::kBudgetExceeded);
  EXPECT_EQ(r.diag.stage, "tran");
  EXPECT_NE(r.diag.detail.find("truncated at t"), std::string::npos);
  // The waveform up to the cut is kept, and the checkpoint is the last
  // accepted state (a restart handle).
  ASSERT_FALSE(r.time.empty());
  EXPECT_NEAR(r.t_checkpoint, r.time.back(), 1e-15);
  ASSERT_FALSE(r.x.empty());
  EXPECT_EQ(r.x_checkpoint.size(), r.x.back().size());
  for (std::size_t i = 0; i < r.x_checkpoint.size(); ++i)
    EXPECT_EQ(r.x_checkpoint[i], r.x.back()[i]);
}

TEST(Budget, TransientCancelBeforeOpIsStructured) {
  ckt::Netlist nl;
  build_rc(nl);
  core::CancelToken cancel;
  cancel.request();
  core::RunBudget budget;
  budget.cancel = &cancel;
  an::TranOptions t;
  t.t_stop = 10e-6;
  t.dt = 1e-6;
  t.budget = &budget;
  const auto r = an::run_transient(nl, t);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.diag.status, an::SolveStatus::kCancelled);
  EXPECT_TRUE(r.telemetry.budget_truncated);
  EXPECT_EQ(r.telemetry.budget_stop, "cancelled");
}

TEST(Budget, MonteCarloBudgetSkipsAreStructuredFailures) {
  core::RunBudget budget;
  budget.max_steps = 4;
  an::McOptions opt;
  opt.threads = 1;
  opt.budget = &budget;
  num::Rng rng(11);
  const auto st =
      an::monte_carlo_shared(10, rng, draw_normal, drawn_value, opt);
  EXPECT_EQ(st.samples.size(), 4u);
  EXPECT_EQ(st.failures, 6);
  ASSERT_EQ(st.failure_diags.size(), 6u);
  for (const auto& f : st.failure_diags) {
    EXPECT_EQ(f.diag.status, an::SolveStatus::kBudgetExceeded);
    EXPECT_NE(f.diag.detail.find("deadline_exceeded"), std::string::npos);
  }
  EXPECT_EQ(st.failure_causes().at("budget_exceeded"), 6);
}

TEST(Budget, MonteCarloParallelWorkersStopClaiming) {
  // With racing workers the exact cut point is not deterministic, but
  // the structural contract holds: every sample is either a good value
  // or a structured budget failure, and at least one of each exists.
  core::RunBudget budget;
  budget.max_steps = 3;
  an::McOptions opt;
  opt.threads = 4;
  opt.chunk = 1;
  opt.budget = &budget;
  num::Rng rng(11);
  const auto st =
      an::monte_carlo_shared(32, rng, draw_normal, drawn_value, opt);
  EXPECT_EQ(st.samples.size() + st.failure_diags.size(), 32u);
  EXPECT_GE(st.samples.size(), 3u);
  EXPECT_GE(st.failures, 1);
  for (const auto& f : st.failure_diags)
    EXPECT_EQ(f.diag.status, an::SolveStatus::kBudgetExceeded);
}

TEST(Budget, AcGridKeepsSolvedPrefix) {
  ckt::Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add<dev::VSource>("V1", in, ckt::kGround,
                       dev::Waveform::dc(0.0).with_ac(1.0));
  nl.add<dev::Resistor>("R1", in, out, 1e3);
  nl.add<dev::Capacitor>("C1", out, ckt::kGround, 1e-9);
  const auto freqs = an::log_frequencies(10.0, 1e6, 2);
  ASSERT_GT(freqs.size(), 5u);
  core::RunBudget budget;
  budget.max_steps = 5;
  an::AcOptions opt;
  opt.budget = &budget;
  const auto ac = an::run_ac_diag(nl, freqs, opt);
  EXPECT_FALSE(ac.ok());
  ASSERT_TRUE(ac.truncated);
  EXPECT_EQ(ac.solutions.size(), 5u);
  EXPECT_EQ(ac.diag.status, an::SolveStatus::kBudgetExceeded);
  EXPECT_EQ(ac.diag.stage, "ac");
  EXPECT_NE(ac.diag.detail.find("truncated"), std::string::npos);
  // The kept prefix is the real solution: DC-adjacent point has unity
  // transfer through the RC.
  EXPECT_NEAR(std::abs(ac.v(0, out)), 1.0, 1e-3);
}

TEST(Budget, NoiseGridKeepsSolvedPrefix) {
  ckt::Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add<dev::VSource>("V1", in, ckt::kGround,
                       dev::Waveform::dc(0.0).with_ac(1.0));
  nl.add<dev::Resistor>("R1", in, out, 10e3);
  nl.add<dev::Resistor>("R2", out, ckt::kGround, 10e3);
  an::NoiseOptions nopt;
  nopt.out_p = out;
  nopt.input_source = "V1";
  core::RunBudget budget;
  budget.max_steps = 4;
  nopt.budget = &budget;
  const auto freqs = an::log_frequencies(10.0, 1e5, 2);
  ASSERT_GT(freqs.size(), 4u);
  const auto res = an::run_noise_diag(nl, freqs, nopt);
  EXPECT_FALSE(res.ok());
  ASSERT_TRUE(res.truncated);
  EXPECT_EQ(res.points.size(), 4u);
  EXPECT_EQ(res.diag.status, an::SolveStatus::kBudgetExceeded);
  EXPECT_EQ(res.diag.stage, "noise");
  for (const auto& p : res.points) {
    EXPECT_TRUE(std::isfinite(p.s_out));
    EXPECT_GT(p.s_out, 0.0);
  }
}

TEST(Budget, DcSweepMarksPointsNotRun) {
  ckt::Netlist nl;
  build_diode_stack(nl);
  auto* src = nl.find_as<dev::VSource>("V1");
  ASSERT_NE(src, nullptr);
  core::RunBudget budget;
  budget.max_newton_iterations = 1;
  an::OpOptions opt;
  opt.budget = &budget;
  const auto sweep = an::dc_sweep(
      nl, {1.0, 2.0, 3.0},
      [&](double v) { src->set_waveform(dev::Waveform::dc(v)); }, opt);
  ASSERT_EQ(sweep.size(), 3u);
  // Point 0 started and was cut mid-Newton; points 1..2 never ran.
  EXPECT_FALSE(sweep[0].op.converged);
  EXPECT_EQ(sweep[0].op.diag.status, an::SolveStatus::kBudgetExceeded);
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_EQ(sweep[i].op.diag.status,
              an::SolveStatus::kBudgetExceeded);
    EXPECT_NE(sweep[i].op.diag.detail.find("point not run"),
              std::string::npos);
  }
}

TEST(Budget, TransientSweepMarksCasesNotRun) {
  core::RunBudget budget;
  budget.max_steps = 5;
  an::TranSweepOptions sopt;
  sopt.threads = 1;
  sopt.budget = &budget;
  const auto results = an::run_transient_sweep(
      4,
      [](std::size_t, ckt::Netlist& nl, an::TranOptions& t) {
        build_rc(nl);
        t.t_stop = 20e-6;
        t.dt = 1e-6;
      },
      sopt);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].truncated);
  EXPECT_EQ(results[0].telemetry.accepted_steps, 5);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_FALSE(results[i].ok);
    EXPECT_TRUE(an::is_budget_stop(results[i].diag.status));
    EXPECT_NE(results[i].diag.detail.find("case not run"),
              std::string::npos);
  }
}

// ---- invalid transient options: a diag, never a hang ---------------

// Runs f on a thread of its own and waits at most 10 s for its result.
// f owns everything it touches, so a run that overstays (and fails the
// test) can be left detached without dangling references.
template <class T>
std::optional<T> within_timeout(std::function<T()> f) {
  auto done = std::make_shared<std::promise<T>>();
  std::future<T> result = done->get_future();
  std::thread([done, f = std::move(f)] { done->set_value(f()); }).detach();
  if (result.wait_for(std::chrono::seconds(10)) != std::future_status::ready)
    return std::nullopt;
  return result.get();
}

// The option sets run_transient refuses, each with what it spoils.
std::vector<std::pair<const char*, an::TranOptions>> invalid_tran_options() {
  std::vector<std::pair<const char*, an::TranOptions>> cases;
  const auto add = [&](const char* name, auto edit) {
    an::TranOptions t;
    t.t_stop = 20e-6;
    t.dt = 1e-6;
    edit(t);
    cases.emplace_back(name, t);
  };
  add("dt = 0", [](an::TranOptions& t) { t.dt = 0.0; });
  add("dt < 0", [](an::TranOptions& t) { t.dt = -1e-6; });
  add("dt = NaN", [](an::TranOptions& t) { t.dt = std::nan(""); });
  add("dt = inf", [](an::TranOptions& t) { t.dt = INFINITY; });
  add("t_start = t_stop", [](an::TranOptions& t) { t.t_start = t.t_stop; });
  add("t_stop = NaN", [](an::TranOptions& t) { t.t_stop = std::nan(""); });
  add("t_stop = inf", [](an::TranOptions& t) { t.t_stop = INFINITY; });
  add("max_halvings < 0", [](an::TranOptions& t) { t.max_halvings = -1; });
  return cases;
}

void expect_invalid_options_diag(const an::TranResult& r) {
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.diag.status, an::SolveStatus::kBadTopology);
  EXPECT_EQ(r.diag.stage, "tran");
  EXPECT_NE(r.diag.detail.find("invalid options"), std::string::npos)
      << r.diag.detail;
  EXPECT_TRUE(r.time.empty());
}

TEST(InvalidOptions, TransientReturnsADiag) {
  for (const auto& [name, opt] : invalid_tran_options()) {
    SCOPED_TRACE(name);
    const auto r = within_timeout<an::TranResult>([opt = opt] {
      ckt::Netlist nl;
      build_rc(nl);
      return an::run_transient(nl, opt);
    });
    ASSERT_TRUE(r.has_value()) << "run_transient did not return";
    expect_invalid_options_diag(*r);
  }
}

TEST(InvalidOptions, EnsembleReturnsADiagPerSample) {
  for (const auto& [name, opt] : invalid_tran_options()) {
    SCOPED_TRACE(name);
    const auto er = within_timeout<an::TranEnsembleResult>([opt = opt] {
      return an::run_transient_ensemble(
          4, [opt](std::size_t, ckt::Netlist& nl, an::TranOptions& t) {
            build_rc(nl);
            t = opt;
          });
    });
    ASSERT_TRUE(er.has_value()) << "run_transient_ensemble did not return";
    EXPECT_FALSE(er->ensemble.used_ensemble);
    EXPECT_EQ(er->ensemble.fallback_reason, "invalid_options");
    ASSERT_EQ(er->results.size(), 4u);
    for (const auto& r : er->results) expect_invalid_options_diag(r);
  }
}

// Shooting PSS refuses a NaN or negative tone frequency, and a tran.dt
// that is not finite and > 0 when the step is derived from it, rather
// than auto-detecting or snapping to a default step.
TEST(InvalidOptions, PssReturnsADiag) {
  std::vector<std::pair<const char*, an::PssOptions>> cases;
  const auto add = [&](const char* name, auto edit) {
    an::PssOptions o;
    o.tran.dt = 1e-6;
    edit(o);
    cases.emplace_back(name, o);
  };
  add("dt = 0", [](an::PssOptions& o) { o.tran.dt = 0.0; });
  add("dt < 0", [](an::PssOptions& o) { o.tran.dt = -1e-6; });
  add("dt = NaN", [](an::PssOptions& o) { o.tran.dt = std::nan(""); });
  add("dt = inf", [](an::PssOptions& o) { o.tran.dt = INFINITY; });
  add("f0 = NaN", [](an::PssOptions& o) { o.f0_hz = std::nan(""); });
  add("f0 < 0", [](an::PssOptions& o) { o.f0_hz = -10e3; });
  for (const auto& [name, opt] : cases) {
    SCOPED_TRACE(name);
    const auto r = within_timeout<an::PssResult>([opt = opt] {
      ckt::Netlist nl;
      build_rc(nl);
      return an::run_pss_shooting(nl, opt);
    });
    ASSERT_TRUE(r.has_value()) << "run_pss_shooting did not return";
    EXPECT_FALSE(r->ok);
    EXPECT_EQ(r->diag.status, an::SolveStatus::kBadTopology);
    EXPECT_EQ(r->diag.stage, "pss");
    EXPECT_NE(r->diag.detail.find("invalid options"), std::string::npos)
        << r->diag.detail;
    EXPECT_TRUE(r->time.empty());
  }
  // A set samples_per_period makes tran.dt unread.
  an::PssOptions o;
  o.samples_per_period = 64;
  o.tran.dt = 0.0;
  ckt::Netlist nl;
  build_rc(nl);
  EXPECT_TRUE(an::run_pss_shooting(nl, o).ok);
}

// AC accepts 0 Hz but refuses a frequency that is not finite or is
// negative; noise refuses 0 Hz too.  The diag names the bad point's
// index, and no point is solved.  An empty grid is ok and empty.
TEST(InvalidOptions, AcAndNoiseRefuseBadFrequencies) {
  ckt::Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add<dev::VSource>("V1", in, ckt::kGround,
                       dev::Waveform::dc(0.0).with_ac(1.0));
  nl.add<dev::Resistor>("R1", in, out, 1e3);
  nl.add<dev::Capacitor>("C1", out, ckt::kGround, 1e-9);
  an::NoiseOptions nopt;
  nopt.out_p = out;
  nopt.input_source = "V1";
  const auto expect_refused = [](const an::SolveDiag& d, const char* stage) {
    EXPECT_EQ(d.status, an::SolveStatus::kBadTopology);
    EXPECT_EQ(d.stage, stage);
    EXPECT_NE(d.detail.find("invalid options: f[1]"), std::string::npos)
        << d.detail;
  };
  const double inf = std::numeric_limits<double>::infinity();
  for (const double f : {std::nan(""), inf, -inf, -1e3, 0.0}) {
    SCOPED_TRACE(f);
    const auto ac = an::run_ac_diag(nl, {1e3, f});
    if (f == 0.0) {
      ASSERT_TRUE(ac.ok()) << ac.diag.message();
      EXPECT_NEAR(std::abs(ac.v(1, out)), 1.0, 1e-6);
    } else {
      expect_refused(ac.diag, "ac");
      EXPECT_TRUE(ac.solutions.empty());
    }
    const auto nr = an::run_noise_diag(nl, {1e3, f}, nopt);
    expect_refused(nr.diag, "noise");
    EXPECT_TRUE(nr.points.empty());
  }
  const auto ac = an::run_ac_diag(nl, {});
  EXPECT_TRUE(ac.ok());
  EXPECT_TRUE(ac.solutions.empty());
  const auto nr = an::run_noise_diag(nl, {}, nopt);
  EXPECT_TRUE(nr.ok());
  EXPECT_TRUE(nr.points.empty());
}

// ---- lint: non-finite device parameters -----------------------------

TEST(Lint, NonFiniteParamRejectedWithSourceLine) {
  auto parsed = spice::parse_netlist_file(fault_path("nan_param.sp"));
  const auto issues = ckt::lint(*parsed.netlist);
  ASSERT_TRUE(ckt::lint_has_errors(issues));
  bool found = false;
  for (const auto& i : issues) {
    if (i.kind != ckt::LintKind::kNonFiniteParam) continue;
    found = true;
    EXPECT_EQ(i.severity, ckt::LintSeverity::kError);
    EXPECT_EQ(i.device, "r1");
    EXPECT_EQ(i.line, 3);  // the `r1 a b nan` card
  }
  EXPECT_TRUE(found);

  // The default preflight turns the lint error into a structured
  // topology failure before any matrix is assembled.
  const auto op = an::solve_op(*parsed.netlist);
  EXPECT_FALSE(op.converged);
  EXPECT_EQ(op.diag.status, an::SolveStatus::kBadTopology);
  EXPECT_NE(op.diag.detail.find("non_finite_param"), std::string::npos);
}

#if defined(MSIM_FAULTPOINTS)

// ---- deterministic fault injection ----------------------------------

namespace fp = core::faultpoint;

// Disarms every site on scope exit so a failing assertion cannot leak
// armed faults into later tests.
struct FaultGuard {
  FaultGuard() { fp::disarm_all(); }
  ~FaultGuard() { fp::disarm_all(); }
};

TEST(FaultPoint, SlowStepSkewDrivesDeadlineDeterministically) {
  FaultGuard guard;
  ckt::Netlist nl;
  build_rc(nl);
  core::RunBudget budget(1e9);  // would never expire on its own
  an::TranOptions t;
  t.t_stop = 100e-6;
  t.dt = 1e-6;
  t.budget = &budget;
  // Skip the first 3 loop-top polls, then inject enough clock skew to
  // blow the deadline: exactly 3 steps are accepted, reproducibly,
  // without the test ever sleeping.
  fp::arm("slow_step_skew", 1, 3);
  const auto r = an::run_transient(nl, t);
  EXPECT_EQ(fp::trip_count("slow_step_skew"), 1);
  ASSERT_TRUE(r.truncated);
  EXPECT_EQ(r.telemetry.accepted_steps, 3);
  EXPECT_EQ(r.telemetry.budget_stop, "deadline");
  EXPECT_EQ(r.diag.status, an::SolveStatus::kBudgetExceeded);
}

TEST(FaultPoint, MonteCarloPoisonedSampleThreadInvariant) {
  // One injected-NaN sample among 8: statistics over the other 7, one
  // structured kNonFinite diag, bit-identical at 1, 2, and 8 threads.
  FaultGuard guard;
  std::vector<std::vector<double>> per_thread_samples;
  for (int threads : {1, 2, 8}) {
    fp::arm("mc_sample_nan", /*fires=*/1, /*skips=*/0, /*match=*/3);
    an::McOptions opt;
    opt.threads = threads;
    num::Rng rng(42);
    const auto st =
        an::monte_carlo_shared(8, rng, draw_normal, drawn_value, opt);
    EXPECT_EQ(fp::trip_count("mc_sample_nan"), 1) << threads;
    ASSERT_EQ(st.samples.size(), 7u) << threads;
    EXPECT_EQ(st.failures, 1) << threads;
    ASSERT_EQ(st.failure_diags.size(), 1u) << threads;
    EXPECT_EQ(st.failure_diags[0].sample, 3) << threads;
    EXPECT_EQ(st.failure_diags[0].diag.status,
              an::SolveStatus::kNonFinite)
        << threads;
    per_thread_samples.push_back(st.samples);
    fp::disarm_all();
  }
  // Bit-identical statistics at every thread count.
  for (std::size_t k = 1; k < per_thread_samples.size(); ++k) {
    ASSERT_EQ(per_thread_samples[k].size(), per_thread_samples[0].size());
    for (std::size_t i = 0; i < per_thread_samples[0].size(); ++i)
      EXPECT_EQ(per_thread_samples[k][i], per_thread_samples[0][i]);
  }
}

TEST(FaultPoint, TransientFactorizationFailureRecoversViaHomotopy) {
  // A single forced factor() failure looks like a singular matrix; the
  // op solver's fallback ladder retries and still lands on the exact
  // divider solution instead of crashing or reusing the stale LU.
  FaultGuard guard;
  ckt::Netlist nl;
  const auto a = nl.node("a");
  nl.add<dev::VSource>("V1", a, ckt::kGround, 1.0);
  nl.add<dev::Resistor>("R1", a, ckt::kGround, 1e3);
  fp::arm("sparse_factor_fail", 1);
  const auto op = an::solve_op(nl);
  EXPECT_EQ(fp::trip_count("sparse_factor_fail"), 1);
  ASSERT_TRUE(op.converged) << op.diag.message();
  EXPECT_NEAR(op.v(a), 1.0, 1e-12);

  // A persistent failure (every factor attempt) is not recoverable and
  // must surface as a structured singular-matrix diagnosis.
  fp::arm("sparse_factor_fail", 1000000);
  const auto bad = an::solve_op(nl);
  fp::disarm_all();
  EXPECT_FALSE(bad.converged);
  EXPECT_EQ(bad.diag.status, an::SolveStatus::kSingularMatrix);
}

TEST(FaultPoint, FailedFactorizationInTransientInvalidatesAndRecovers) {
  // A failed factor() leaves the PREVIOUS numeric LU inside the solver;
  // newton_step must mark it non-reusable and re-factor, not silently
  // solve against the stale one.  The run recovers through the standard
  // step-halving path and finishes with the same waveform.
  FaultGuard guard;
  auto build = [](ckt::Netlist& nl) {
    const auto in = nl.node("in");
    const auto out = nl.node("out");
    nl.add<dev::VSource>("Vin", in, ckt::kGround,
                         dev::Waveform::sine(0.0, 2.0, 1e3));
    nl.add<dev::Diode>("D1", in, out, dev::DiodeParams{});
    nl.add<dev::Resistor>("RL", out, ckt::kGround, 1e4);
    nl.add<dev::Capacitor>("CL", out, ckt::kGround, 1e-9);
  };
  an::TranOptions t;
  t.t_stop = 200e-6;
  t.dt = 5e-6;

  ckt::Netlist ref_nl;
  build(ref_nl);
  const auto ref = an::run_transient(ref_nl, t);
  ASSERT_TRUE(ref.ok) << ref.diag.message();

  // The op phase factors a deterministic number of times; skip exactly
  // those hits so the trip lands on the transient's first factor.
  ckt::Netlist count_nl;
  build(count_nl);
  const long op_factors =
      an::solve_op(count_nl).solver_stats.factor_count;
  ASSERT_GT(op_factors, 0);

  ckt::Netlist nl;
  build(nl);
  fp::arm("sparse_factor_fail", 1, op_factors);
  const auto r = an::run_transient(nl, t);
  EXPECT_EQ(fp::trip_count("sparse_factor_fail"), 1);
  ASSERT_TRUE(r.ok) << r.diag.message();
  // The failure was observed and recovered from: a rejection, a dt cut,
  // and a re-factorization (never a stale-LU reuse masquerading as ok).
  EXPECT_GE(r.telemetry.rejected_newton, 1);
  EXPECT_LT(r.telemetry.min_dt_used, t.dt);
  ASSERT_EQ(r.time.size(), ref.time.size());
  EXPECT_NEAR(r.x.back()[0], ref.x.back()[0], 1e-3);
}

TEST(FaultPoint, MidRunFactorizationFailureHalvesOneBaseStep) {
  // One forced factor() failure deep into a nonlinear run: that base
  // step halves and restarts Newton from the accepted point, and the
  // next base step extrapolates its predictor through the two half
  // steps.  The run must recover and track a clean run.
  FaultGuard guard;
  auto build = [](ckt::Netlist& nl) {
    const auto in = nl.node("in");
    const auto out = nl.node("out");
    nl.add<dev::VSource>("Vin", in, ckt::kGround,
                         dev::Waveform::sine(0.0, 2.0, 1e3));
    nl.add<dev::Diode>("D1", in, out, dev::DiodeParams{});
    nl.add<dev::Resistor>("RL", out, ckt::kGround, 1e4);
    nl.add<dev::Capacitor>("CL", out, ckt::kGround, 1e-9);
  };
  an::TranOptions t;
  t.t_stop = 1e-3;
  t.dt = 5e-6;

  ckt::Netlist ref_nl;
  build(ref_nl);
  const auto ref = an::run_transient(ref_nl, t);
  ASSERT_TRUE(ref.ok) << ref.diag.message();

  ckt::Netlist count_nl;
  build(count_nl);
  const long op_factors =
      an::solve_op(count_nl).solver_stats.factor_count;
  // Lands about a third of the way into the run.
  const long skips = op_factors + ref.telemetry.factor_count / 3;

  ckt::Netlist nl;
  build(nl);
  fp::arm("sparse_factor_fail", 1, skips);
  const auto r = an::run_transient(nl, t);
  EXPECT_EQ(fp::trip_count("sparse_factor_fail"), 1);
  ASSERT_TRUE(r.ok) << r.diag.message();
  EXPECT_EQ(r.telemetry.rejected_newton, 1);
  EXPECT_EQ(r.telemetry.min_dt_used, 0.5 * t.dt);
  EXPECT_EQ(r.telemetry.accepted_steps, ref.telemetry.accepted_steps + 1);
  const auto out = nl.node("out");
  const auto w = r.node_wave(out);
  const auto w_ref = ref.node_wave(ref_nl.node("out"));
  ASSERT_EQ(w.size(), w_ref.size());
  // Bit-identical up to the halved step, within Newton's tolerance after.
  std::size_t first_diff = w.size();
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (w[i] != w_ref[i] && first_diff == w.size()) first_diff = i;
    EXPECT_NEAR(w[i], w_ref[i],
                an::kNewtonVtol + an::kNewtonReltol * std::abs(w_ref[i]))
        << "t = " << r.time[i];
  }
  EXPECT_GT(first_diff, w.size() / 4);
  EXPECT_LT(first_diff, w.size());
}

TEST(FaultPoint, DeviceEvalNanIsRejectedAndRecovered) {
  // One poisoned assembly: the Newton update goes non-finite, the
  // solver rejects it and retries cleanly instead of propagating NaN
  // into the solution.
  FaultGuard guard;
  ckt::Netlist nl;
  build_diode_stack(nl);
  fp::arm("device_eval_nan", 1);
  const auto op = an::solve_op(nl);
  EXPECT_EQ(fp::trip_count("device_eval_nan"), 1);
  ASSERT_TRUE(op.converged) << op.diag.message();
  for (std::size_t i = 0; i < op.x.size(); ++i)
    EXPECT_TRUE(std::isfinite(op.x[i]));
}

TEST(FaultPoint, CacheAdoptFailureDegradesToLocalAnalysis) {
  FaultGuard guard;
  auto build = [](ckt::Netlist& nl) {
    const auto a = nl.node("a");
    const auto b = nl.node("b");
    nl.add<dev::VSource>("V1", a, ckt::kGround, 2.0);
    nl.add<dev::Resistor>("R1", a, b, 1e3);
    nl.add<dev::Resistor>("R2", b, ckt::kGround, 1e3);
  };
  ckt::Netlist donor;
  build(donor);
  ASSERT_TRUE(an::solve_op(donor).converged);  // warm the donor's cache

  ckt::Netlist with_cache;
  build(with_cache);
  with_cache.adopt_solver_cache(donor);
  const auto op_cached = an::solve_op(with_cache);
  ASSERT_TRUE(op_cached.converged);

  ckt::Netlist degraded;
  build(degraded);
  fp::arm("cache_adopt_fail", 1);
  degraded.adopt_solver_cache(donor);  // adoption silently fails
  EXPECT_EQ(fp::trip_count("cache_adopt_fail"), 1);
  const auto op_local = an::solve_op(degraded);
  ASSERT_TRUE(op_local.converged);
  // Identical result either way; the fallback only costs time.
  ASSERT_EQ(op_local.x.size(), op_cached.x.size());
  for (std::size_t i = 0; i < op_local.x.size(); ++i)
    EXPECT_EQ(op_local.x[i], op_cached.x[i]);
}

// ---- numerical-health monitor ---------------------------------------

TEST(HealthMonitor, IterativeRefinementRepairsPerturbedSolve) {
  FaultGuard guard;
  ckt::Netlist nl;
  const auto a = nl.node("a");
  const auto b = nl.node("b");
  nl.add<dev::VSource>("V1", a, ckt::kGround, 2.0);
  nl.add<dev::Resistor>("R1", a, b, 1e3);
  nl.add<dev::Resistor>("R2", b, ckt::kGround, 1e3);
  fp::arm("solve_perturb", 1);
  const auto op = an::solve_op(nl);
  EXPECT_EQ(fp::trip_count("solve_perturb"), 1);
  ASSERT_TRUE(op.converged) << op.diag.message();
  // The residual check caught the perturbed solution and one round of
  // refinement repaired it; the answer is the clean divider voltage.
  EXPECT_GE(op.solver_stats.refine_count, 1);
  EXPECT_NEAR(op.v(b), 1.0, 1e-9);
}

TEST(HealthMonitor, RefinementFailureForcesRefactor) {
  FaultGuard guard;
  ckt::Netlist nl;
  const auto a = nl.node("a");
  const auto b = nl.node("b");
  nl.add<dev::VSource>("V1", a, ckt::kGround, 2.0);
  nl.add<dev::Resistor>("R1", a, b, 1e3);
  nl.add<dev::Resistor>("R2", b, ckt::kGround, 1e3);
  // Poison the direct solve AND the refined solve: the monitor must
  // escalate to a forced refactorization and a clean re-solve.
  fp::arm("solve_perturb", 1);
  fp::arm("refine_perturb", 1);
  const auto op = an::solve_op(nl);
  ASSERT_TRUE(op.converged) << op.diag.message();
  EXPECT_GE(op.solver_stats.refine_count, 1);
  EXPECT_GE(op.solver_stats.by_reason[static_cast<int>(
                an::FactorReason::kIterativeRefinement)],
            1L);
  EXPECT_NEAR(op.v(b), 1.0, 1e-9);
}

#endif  // MSIM_FAULTPOINTS

}  // namespace
