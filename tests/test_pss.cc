// Shooting-Newton periodic steady state: THD agreement with the settle
// oracle on the class-AB buffer, the periodicity-residual contract and
// restart purity of the period map, one-update convergence on a linear
// circuit, which shots carry the Phi ride-along, the pre-roll's start at
// its sources' DC point, structured budget/cancel partials,
// thread-count determinism of MC-over-PSS through monte_carlo_shared,
// and the telemetry's merge rules and exact rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "analysis/montecarlo.h"
#include "analysis/pss.h"
#include "analysis/transient.h"
#include "bench_util.h"
#include "circuit/netlist.h"
#include "core/budget.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "numeric/rng.h"
#include "serve/deck.h"
#include "signal/meter.h"

namespace {

using namespace msim;

// ------------------------------------------------------------ linear RC

ckt::NodeId build_rc(ckt::Netlist& nl) {
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add<dev::VSource>("V1", in, ckt::kGround,
                       dev::Waveform::sine(0.0, 1.0, 1e3));
  nl.add<dev::Resistor>("R1", in, out, 1e3);
  nl.add<dev::Capacitor>("C1", out, ckt::kGround, 100e-9);
  return out;
}

// For a linear circuit the period map is affine and Phi is exact (the
// per-step LUs are the true Jacobians), so a single Newton boundary
// update must land on the periodic orbit to machine precision -- even
// from a start state far outside steady state: the RC's time constant
// is T/10, so the quarter-period pre-roll leaves its capacitor about 8 %
// of its start error off the orbit.
TEST(Pss, LinearRcConvergesInOneShootingUpdate) {
  ckt::Netlist nl;
  const auto out = build_rc(nl);

  an::PssOptions o;
  o.samples_per_period = 512;
  const auto r = an::run_pss_shooting(nl, o);
  ASSERT_TRUE(r.ok) << r.diag.message();
  EXPECT_EQ(r.f0_hz, 1e3);
  EXPECT_EQ(r.telemetry.shooting_iterations, 1);
  // Post-update periodicity residual is floating-point noise, far below
  // the default tolerance.
  EXPECT_LT(r.telemetry.residual, 1e-10);
  // One capacitor voltage is the only dynamic unknown: the boundary
  // Newton system is 1x1 even though the MNA system is larger.
  EXPECT_EQ(r.telemetry.dynamic_unknowns, 1);
  EXPECT_GT(r.telemetry.unknowns, 1);
  EXPECT_GT(r.telemetry.phi_solve_count, 0);

  // Exactly one coherent period recorded.
  ASSERT_EQ(r.x.size(), 512u);
  ASSERT_EQ(r.time.size(), 512u);
  EXPECT_DOUBLE_EQ(r.time.front(), 0.0);

  // Steady-state physics: |H(j w)| = 1/sqrt(1 + (wRC)^2), pure tone.
  const auto h = r.harmonics(r.node_wave(out));
  const double wrc = 2.0 * M_PI * 1e3 * 1e3 * 100e-9;
  EXPECT_NEAR(h.fundamental_amp, 1.0 / std::sqrt(1.0 + wrc * wrc), 5e-4);
  // The method's distortion floor: the pure-restart contract takes the
  // first step of each period with backward Euler, a once-per-period
  // O(dt^2) kink that reads as ~1e-5 THD at 512 samples/period.
  EXPECT_LT(h.thd, 2e-5);
}

// A start state far from steady state: the first shot (no Phi) fails
// the periodicity test and becomes a settle period, so the run is the
// pre-roll + that shot + one Phi shot + the post-update shot that
// closes the orbit.  Phi rides exactly the two shots that carry it.
TEST(Pss, UnsettledFirstShotBecomesASettlePeriod) {
  ckt::Netlist nl;
  build_rc(nl);
  an::PssOptions o;
  o.samples_per_period = 512;
  const auto r = an::run_pss_shooting(nl, o);
  ASSERT_TRUE(r.ok) << r.diag.message();
  EXPECT_EQ(r.telemetry.shooting_iterations, 1);
  EXPECT_LT(r.telemetry.residual, 1e-10);
  ASSERT_EQ(r.telemetry.residual_history.size(), 3u);
  EXPECT_GT(r.telemetry.residual_history[0], an::kPssTolAbs + an::kPssTolRel);
  EXPECT_EQ(r.telemetry.periods_integrated, 3.25);
  EXPECT_GT(r.telemetry.phi_solve_count, 0);
  EXPECT_EQ(r.telemetry.phi_solve_count,
            2L * r.telemetry.dynamic_unknowns * o.samples_per_period);
}

// The tone auto-detector: one undamped, undelayed sine is a tone; any
// second frequency, damping, delay, or pulse/PWL forcing is not.
TEST(Pss, SingleToneDetection) {
  {
    ckt::Netlist nl;
    build_rc(nl);
    EXPECT_EQ(an::single_tone_hz(nl), 1e3);
  }
  {
    ckt::Netlist nl;
    const auto out = build_rc(nl);
    nl.add<dev::VSource>("V2", nl.node("aux"), ckt::kGround,
                         dev::Waveform::sine(0.0, 0.1, 2e3));
    (void)out;
    EXPECT_EQ(an::single_tone_hz(nl), 0.0);
  }
  {
    ckt::Netlist nl;
    const auto in = nl.node("in");
    nl.add<dev::VSource>("V1", in, ckt::kGround,
                         dev::Waveform::sine(0.0, 1.0, 1e3, /*delay=*/1e-4));
    nl.add<dev::Resistor>("R1", in, ckt::kGround, 1e3);
    EXPECT_EQ(an::single_tone_hz(nl), 0.0);
  }
  {
    ckt::Netlist nl;
    const auto in = nl.node("in");
    nl.add<dev::VSource>("V1", in, ckt::kGround,
                         dev::Waveform::pulse(0.0, 1.0, 0.0, 1e-6, 1e-6,
                                              0.5e-3, 1e-3));
    nl.add<dev::Resistor>("R1", in, ckt::kGround, 1e3);
    EXPECT_EQ(an::single_tone_hz(nl), 0.0);
  }
  {
    // DC-only deck: no tone, and run_pss_shooting reports it cleanly.
    ckt::Netlist nl;
    const auto in = nl.node("in");
    nl.add<dev::VSource>("V1", in, ckt::kGround, 1.0);
    nl.add<dev::Resistor>("R1", in, ckt::kGround, 1e3);
    EXPECT_EQ(an::single_tone_hz(nl), 0.0);
    const auto r = an::run_pss_shooting(nl, {});
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.diag.status, an::SolveStatus::kBadTopology);
    EXPECT_EQ(r.diag.stage, "pss");
  }
}

// A transient's clock starts at t_start, as the PSS pre-roll's does at
// 0.75 T: the operating point reads the sources there (at DC the RC
// passes its input, so the capacitor sits at the sine's value at
// t_start), the first recorded point is at t_start, and the run ends at
// t_stop after (t_stop - t_start) / dt steps.
TEST(Pss, PreRollStartsAtItsSourcesDcPoint) {
  ckt::Netlist nl;
  const auto out = build_rc(nl);
  const auto in = nl.find_node("in");
  const double period = 1e-3;
  an::TranOptions t;
  t.t_start = 0.75 * period;
  t.t_stop = period;
  t.dt = period / 512;
  const auto r = an::run_transient(nl, t);
  ASSERT_TRUE(r.ok) << r.diag.message();
  ASSERT_EQ(r.time.size(), 129u);
  EXPECT_EQ(r.time.front(), t.t_start);
  EXPECT_NEAR(r.t_final, t.t_stop, 1e-15);
  EXPECT_EQ(r.telemetry.accepted_steps, 128);

  const double v_start = std::sin(2.0 * M_PI * 1e3 * t.t_start);  // -1 V
  EXPECT_NEAR(r.x.front()[static_cast<std::size_t>(in - 1)], v_start,
              1e-12);
  // The 1e-12 S node shunts load the 1 kOhm resistor: v_out is
  // v_in / (1 + 1e-9).
  EXPECT_NEAR(r.x.front()[static_cast<std::size_t>(out - 1)], v_start,
              1e-8);
}

// ------------------------------------------------- class-AB buffer THD

double settle_thd(double vp, double f0, double settle_periods) {
  auto rig = bench::make_drv_rig();
  rig->vsp->set_waveform(dev::Waveform::sine(0.0, vp, f0));
  rig->vsn->set_waveform(dev::Waveform::sine(0.0, -vp, f0));
  an::TranOptions t;
  t.dt = 1e-6;
  t.record_after = settle_periods / f0;
  t.t_stop = t.record_after + 3.0 / f0;
  const auto tr = an::run_transient(rig->nl, t);
  if (!tr.ok) return -1.0;
  auto w = tr.diff_wave(rig->drv.outp, rig->drv.outn);
  // Three whole periods: a fence-post sample past them would leak the
  // fundamental into the harmonic bins.
  const std::size_t n3 =
      3u * static_cast<std::size_t>(
               sig::plan_coherent_capture(f0, t.dt).samples_per_period);
  if (w.size() > n3) w.resize(n3);
  return sig::measure_harmonics(w, t.dt, f0).thd;
}

// PSS THD on the Fig. 9 buffer rig agrees with a deeply settled
// transient oracle across drive amplitudes, while integrating a small
// fixed number of periods (pre-roll + one per shot) instead of the
// oracle's settle-plus-record span.
TEST(Pss, BufferHdThdMatchesSettleOracle) {
  const double f0 = 1e3;
  for (const double vp : {0.15, 0.3, 1.0}) {
    auto rig = bench::make_drv_rig();
    rig->vsp->set_waveform(dev::Waveform::sine(0.0, vp, f0));
    rig->vsn->set_waveform(dev::Waveform::sine(0.0, -vp, f0));
    an::PssOptions o;
    o.tran.dt = 1e-6;
    const auto r = an::run_pss_shooting(rig->nl, o);
    ASSERT_TRUE(r.ok) << "vp=" << vp << ": " << r.diag.message();
    EXPECT_LE(r.telemetry.residual,
              an::kPssTolAbs + an::kPssTolRel * 2.0)  // xmax < 2 V on this rig
        << "vp=" << vp;
    const double thd_pss =
        r.harmonics(r.diff_wave(rig->drv.outp, rig->drv.outn)).thd;

    // Deep-settle oracle: 8 discarded periods is far past the rig's
    // slowest transient.
    const double thd_settle = settle_thd(vp, f0, 8.0);
    ASSERT_GE(thd_settle, 0.0);
    EXPECT_NEAR(thd_pss, thd_settle,
                std::max(0.05 * thd_settle, 2e-5))
        << "vp=" << vp;

    // Effort: the whole PSS solve stays within a handful of periods
    // (the oracle above integrated 11).  Zero shooting iterations is
    // legal -- the fast-settling buffer can already be periodic after
    // the pre-roll, making the first shot its own convergence proof.
    EXPECT_LE(r.telemetry.periods_integrated, 8.0) << "vp=" << vp;
  }
}

// The buffer is periodic after the quarter-period pre-roll, so the
// first shot is the result: 1.25 periods integrated, no Phi solve, no
// boundary update.
TEST(Pss, SettledFirstShotCarriesNoPhi) {
  auto rig = bench::make_drv_rig();
  rig->vsp->set_waveform(dev::Waveform::sine(0.0, 0.3, 1e3));
  rig->vsn->set_waveform(dev::Waveform::sine(0.0, -0.3, 1e3));
  an::PssOptions o;
  o.tran.dt = 1e-6;
  const auto r = an::run_pss_shooting(rig->nl, o);
  ASSERT_TRUE(r.ok) << r.diag.message();
  EXPECT_EQ(r.telemetry.periods_integrated, 1.25);
  EXPECT_EQ(r.telemetry.phi_solve_count, 0);
  EXPECT_EQ(r.telemetry.shooting_iterations, 0);
}

// ------------------------------------- periodicity residual + purity

// The converged boundary state must actually close the orbit: re-
// integrating one period from x0 (BE-first restart) returns to x0
// within the advertised tolerance, and the period map is a PURE
// function of the start state (two identical runs agree bitwise).
TEST(Pss, PeriodicityResidualContractAndRestartPurity) {
  auto rig = bench::make_drv_rig();
  rig->vsp->set_waveform(dev::Waveform::sine(0.0, 0.3, 1e3));
  rig->vsn->set_waveform(dev::Waveform::sine(0.0, -0.3, 1e3));
  an::PssOptions o;
  o.tran.dt = 1e-6;
  const auto r = an::run_pss_shooting(rig->nl, o);
  ASSERT_TRUE(r.ok) << r.diag.message();
  ASSERT_FALSE(r.x0.empty());

  an::TranOptions t = o.tran;
  t.t_stop = 1.0 / r.f0_hz;
  t.dt = r.dt;
  t.record = false;
  t.initial_state = &r.x0;
  t.first_step_backward_euler = true;
  const auto once = an::run_transient(rig->nl, t);
  ASSERT_TRUE(once.ok) << once.diag.message();
  EXPECT_EQ(once.telemetry.op_method, "initial_state");

  double resid = 0.0, xmax = 0.0;
  for (std::size_t i = 0; i < r.x0.size(); ++i) {
    resid = std::max(resid, std::abs(once.x_final[i] - r.x0[i]));
    xmax = std::max(xmax, std::abs(once.x_final[i]));
  }
  EXPECT_LE(resid, an::kPssTolAbs + an::kPssTolRel * xmax);
  EXPECT_EQ(resid, r.telemetry.residual);  // same map, same arithmetic

  const auto again = an::run_transient(rig->nl, t);
  ASSERT_TRUE(again.ok);
  for (std::size_t i = 0; i < r.x0.size(); ++i)
    ASSERT_EQ(once.x_final[i], again.x_final[i]) << "unknown " << i;
}

// ------------------------------------------------- budget / cancel

// A budget expiring mid-PSS returns a structured partial: kBudget-
// Exceeded with a "pss_*"-prefixed stage, truncated flag, and a restart
// checkpoint that a second (x_warm) call can resume from.
TEST(Pss, BudgetPartialAndWarmResume) {
  auto rig = bench::make_drv_rig();
  rig->vsp->set_waveform(dev::Waveform::sine(0.0, 0.3, 1e3));
  rig->vsn->set_waveform(dev::Waveform::sine(0.0, -0.3, 1e3));

  core::RunBudget budget;
  budget.max_steps = 100;  // well inside the 250-step pre-roll
  an::PssOptions o;
  o.tran.dt = 1e-6;
  o.tran.budget = &budget;
  const auto cut = an::run_pss_shooting(rig->nl, o);
  EXPECT_FALSE(cut.ok);
  EXPECT_TRUE(cut.truncated);
  EXPECT_EQ(cut.diag.status, an::SolveStatus::kBudgetExceeded);
  EXPECT_EQ(cut.diag.stage.rfind("pss_prefix", 0), 0u)
      << "stage = " << cut.diag.stage;
  EXPECT_NE(cut.diag.detail.find("steps"), std::string::npos)
      << "detail = " << cut.diag.detail;
  ASSERT_FALSE(cut.x_checkpoint.empty());
  EXPECT_LT(cut.telemetry.periods_integrated, 2.0);
  // 100 of the pre-roll's steps, counted from its start at 0.75 T.
  EXPECT_NEAR(cut.telemetry.periods_integrated, 0.1, 1e-9);

  // Resume from the checkpoint with an unconstrained budget.
  an::PssOptions o2;
  o2.tran.dt = 1e-6;
  o2.x_warm = &cut.x_checkpoint;
  const auto r = an::run_pss_shooting(rig->nl, o2);
  ASSERT_TRUE(r.ok) << r.diag.message();
  EXPECT_LT(r.telemetry.residual, 1e-3);  // contract: converged

  // A pre-fired cancel token stops the run with kCancelled.
  core::CancelToken tok;
  tok.request();
  core::RunBudget cancel_budget;
  cancel_budget.cancel = &tok;
  an::PssOptions o3;
  o3.tran.dt = 1e-6;
  o3.tran.budget = &cancel_budget;
  const auto cancelled = an::run_pss_shooting(rig->nl, o3);
  EXPECT_FALSE(cancelled.ok);
  EXPECT_EQ(cancelled.diag.status, an::SolveStatus::kCancelled);
}

// ------------------------------------------------- MC-over-PSS

// Mismatch Monte-Carlo where every sample's measurement is a full PSS
// THD solve, run through monte_carlo_shared: statistics must be
// bit-identical at 1, 2 and 8 threads (the shared-structure adoption
// and case-0 anchoring must survive the PSS driver's repeated
// run_transient calls on the sample netlist).
TEST(Pss, MonteCarloOverPssIsThreadCountDeterministic) {
  const auto pm = proc::ProcessModel::cmos12();
  const int samples = 6;
  // Node ids are deterministic across identically built netlists; grab
  // the output pair once from a nominal rig.
  const auto nominal = bench::make_mic_rig();
  const auto outp = nominal->mic.outp;
  const auto outn = nominal->mic.outn;

  const auto run = [&](int threads) {
    num::Rng rng(1995);
    an::McOptions mo;
    mo.threads = threads;
    return an::monte_carlo_shared(
        samples, rng,
        [&](num::Rng& srng, ckt::Netlist& nl) {
          auto parts = bench::build_mic_into(nl);
          bench::perturb_mic_strings(parts.mic, pm, srng);
          parts.mic.set_gain_code(5);
          parts.vinp->set_waveform(dev::Waveform::sine(0.0, 2e-3, 1e3));
          parts.vinn->set_waveform(dev::Waveform::sine(0.0, -2e-3, 1e3));
        },
        [&](ckt::Netlist& nl) {
          an::PssOptions o;
          o.samples_per_period = 250;
          auto r = an::run_pss_shooting(nl, o);
          if (!r.ok) return an::McTrial::failed(r.diag);
          return an::McTrial::of(r.harmonics(r.diff_wave(outp, outn)).thd);
        },
        mo);
  };

  const auto s1 = run(1);
  const auto s2 = run(2);
  const auto s8 = run(8);
  EXPECT_EQ(s1.failures, 0) << "serial MC-over-PSS had failed samples";
  for (const auto* s : {&s2, &s8}) {
    ASSERT_EQ(s->samples.size(), s1.samples.size());
    for (std::size_t i = 0; i < s1.samples.size(); ++i)
      EXPECT_EQ(s->samples[i], s1.samples[i]) << "sample " << i;
    EXPECT_EQ(s->mean(), s1.mean());
    EXPECT_EQ(s->stddev(), s1.stddev());
    EXPECT_EQ(s->min(), s1.min());
    EXPECT_EQ(s->max(), s1.max());
  }
}

// Telemetry renders: the summary mentions the headline counters and the
// JSON carries the fields bench_compare.py reads.
TEST(Pss, TelemetryRendering) {
  ckt::Netlist nl;
  build_rc(nl);
  const auto r = an::run_pss_shooting(nl, {});
  ASSERT_TRUE(r.ok);
  const auto s = r.telemetry.summary();
  EXPECT_NE(s.find("shooting"), std::string::npos);
  EXPECT_NE(s.find("period"), std::string::npos);
  const auto js = serve::pss_stats_json(r.telemetry).dump();
  EXPECT_NE(js.find("\"periods_integrated\""), std::string::npos);
  EXPECT_NE(js.find("\"residual\""), std::string::npos);
  EXPECT_NE(js.find("\"phi_solve_count\""), std::string::npos);
}

// Coherent-capture planning and the windowed fallback (sig::meter).
// A tone so slow against the step that one period needs more steps
// than an int counts is refused with a diag before any integration (a
// 1 uHz tone at 1 us wrapped the step count negative and the transient
// loop never ended).
TEST(Pss, PeriodOfTooManyStepsIsRefused) {
  ckt::Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add<dev::VSource>("V1", in, ckt::kGround,
                       dev::Waveform::sine(0.0, 1.0, 1e-6));
  nl.add<dev::Resistor>("R1", in, out, 1e3);
  nl.add<dev::Capacitor>("C1", out, ckt::kGround, 100e-9);
  an::PssOptions o;
  o.tran.dt = 1e-6;
  const auto r = an::run_pss_shooting(nl, o);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.diag.status, an::SolveStatus::kBadTopology);
  EXPECT_EQ(r.diag.stage, "pss");
  EXPECT_NE(r.diag.detail.find("steps"), std::string::npos) << r.diag.detail;
  EXPECT_EQ(r.telemetry.periods_integrated, 0.0);
  EXPECT_EQ(r.telemetry.tran.accepted_steps, 0);
  EXPECT_TRUE(r.x.empty());
}

TEST(Pss, CoherentPlanAndWindowedFallback) {
  // 1 kHz at a 3 us request: 333 samples, dt snapped to 1/333 ms.
  const auto p = sig::plan_coherent_capture(1e3, 3e-6);
  EXPECT_EQ(p.samples_per_period, 333);
  EXPECT_NEAR(p.dt * p.samples_per_period, 1e-3, 1e-15);
  EXPECT_TRUE(p.snapped);
  // A period of more steps than an int counts has no plan: 1e12 steps
  // (a 1 uHz tone at 1 us) used to wrap to a negative count.
  EXPECT_EQ(sig::plan_coherent_capture(1e-6, 1e-6).samples_per_period, 0);
  // An already-coherent request is left alone.
  const auto q = sig::plan_coherent_capture(1e3, 2e-6);
  EXPECT_EQ(q.samples_per_period, 500);
  EXPECT_FALSE(q.snapped);

  // Non-integer number of periods: rectangular Goertzel leaks badly,
  // the Hann-windowed fallback recovers amplitude and THD.
  const double f0 = 997.0, dt = 1e-6;  // prime tone, 10.3 periods
  const std::size_t n = 10337;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * dt;
    x[i] = 0.7 + 1.0 * std::sin(2.0 * M_PI * f0 * t) +
           0.01 * std::sin(2.0 * M_PI * 2.0 * f0 * t);
  }
  const auto hw = sig::measure_harmonics_windowed(x, dt, f0);
  EXPECT_NEAR(hw.fundamental_amp, 1.0, 2e-3);
  EXPECT_NEAR(hw.thd, 0.01, 5e-4);
}

// ------------------------------------------------------------ telemetry

int reason(an::FactorReason r) { return static_cast<int>(r); }

// Every field nonzero: all five refactor reasons, the linear fast path,
// a budget stop and refinement rounds.
an::PssTelemetry filled_telemetry() {
  an::PssTelemetry p;
  p.shooting_iterations = 2;
  p.periods_integrated = 3.25;
  p.residual = 4.5e-14;
  p.dynamic_unknowns = 7;
  p.unknowns = 12;
  p.phi_solve_count = 84;
  p.phi_ns = 2345678;
  an::TranTelemetry& t = p.tran;
  t.accepted_steps = 1250;
  t.rejected_newton = 3;
  t.rejected_nonfinite = 1;
  t.newton_iterations = 2604;
  t.min_dt_used = 1.25e-9;
  t.op_method = "gmin";
  t.op_iterations = 17;
  t.factor_count = 2615;
  t.reuse_count = 41;
  t.by_reason[reason(an::FactorReason::kFullNewton)] = 2604;
  t.by_reason[reason(an::FactorReason::kInitial)] = 1;
  t.by_reason[reason(an::FactorReason::kIntegratorChange)] = 2;
  t.by_reason[reason(an::FactorReason::kDtChange)] = 6;
  t.by_reason[reason(an::FactorReason::kIterativeRefinement)] = 2;
  t.linear_fast_path_used = true;
  t.stamp_ns = 1234567;
  t.factor_ns = 2500000;
  t.solve_ns = 987654321;
  t.budget_truncated = true;
  t.budget_stop = "deadline";
  t.refine_count = 5;
  return p;
}

// The four telemetry views, byte for byte (msim_cli prints them with
// --tran-stats and on stderr).  Refactor reasons are listed by name in
// alphabetical order.  The summaries print numbers as printf's "%.6g";
// the JSON lines sort their keys and print shortest round-trip numbers.
TEST(Telemetry, RenderingIsPinned) {
  const an::PssTelemetry p = filled_telemetry();
  const std::string tran_summary =
      "transient telemetry:\n"
      "  op method            gmin (17 iterations)\n"
      "  accepted steps       1250\n"
      "  rejected (newton)    3\n"
      "  rejected (nonfinite) 1\n"
      "  newton iterations    2604\n"
      "  factorizations       2615 (reused 41, linear fast path)\n"
      "  refactor reasons     dt_change=6 full_newton=2604 initial=1 "
      "integrator_change=2 iterative_refinement=2\n"
      "  solver time          stamp 1.23457 ms, factor 2.5 ms, solve "
      "987.654 ms\n"
      "  min dt attempted     1.25e-09 s\n"
      "  iterative refinement 5 rounds\n"
      "  budget truncated     yes (deadline)\n";
  EXPECT_EQ(p.tran.summary(), tran_summary);
  EXPECT_EQ(serve::tran_stats_json(p.tran).dump(),
            "{\"accepted_steps\":1250,\"budget_stop\":\"deadline\","
            "\"budget_truncated\":true,\"factor_count\":2615,"
            "\"factor_ns\":2500000,\"linear_fast_path\":true,"
            "\"newton_iterations\":2604,\"refactor_reasons\":"
            "{\"dt_change\":6,\"full_newton\":2604,\"initial\":1,"
            "\"integrator_change\":2,\"iterative_refinement\":2},"
            "\"refine_count\":5,\"reuse_count\":41,\"solve_ns\":987654321,"
            "\"stamp_ns\":1234567}");
  EXPECT_EQ(p.summary(),
            "pss: 2 shooting update(s), 3.25 period(s) integrated, "
            "residual 4.5e-14\n"
            "pss: 7/12 dynamic unknown(s), 84 Phi solve(s), 2.34568 ms "
            "Phi ride-along\n" +
                tran_summary);
  EXPECT_EQ(serve::pss_stats_json(p).dump(),
            "{\"dynamic_unknowns\":7,\"periods_integrated\":3.25,"
            "\"phi_ms\":2.345678,\"phi_solve_count\":84,"
            "\"residual\":4.5e-14,\"shooting_iterations\":2,"
            "\"unknowns\":12}");

  // A zero count drops its reason from both views.
  an::TranTelemetry t = p.tran;
  t.by_reason[reason(an::FactorReason::kDtChange)] = 0;
  EXPECT_EQ(t.summary().find("dt_change"), std::string::npos);
  const std::string js = serve::tran_stats_json(t).dump();
  EXPECT_EQ(js.find("dt_change"), std::string::npos);
  EXPECT_NE(js.find("\"refactor_reasons\":{\"full_newton\":2604,"),
            std::string::npos);
}

// FactorStats += sums every counter; TranTelemetry += also sums the
// step counters and keeps the smallest nonzero min_dt_used, the first
// op_method, the OR of the flags and the last non-empty budget_stop.
TEST(Telemetry, MergeSumsCountersAndKeepsTheRules) {
  an::FactorStats a, b;
  a.factor_count = 1;
  a.reuse_count = 2;
  a.stamp_ns = 3;
  a.factor_ns = 4;
  a.solve_ns = 5;
  a.refine_count = 6;
  for (int i = 0; i < an::kFactorReasons; ++i) {
    a.by_reason[i] = 10 + i;
    b.by_reason[i] = 100 * (i + 1);
  }
  b.factor_count = 1000;
  b.reuse_count = 2000;
  b.stamp_ns = 3000;
  b.factor_ns = 4000;
  b.solve_ns = 5000;
  b.refine_count = 6000;
  a += b;
  EXPECT_EQ(a.factor_count, 1001);
  EXPECT_EQ(a.reuse_count, 2002);
  EXPECT_EQ(a.stamp_ns, 3003);
  EXPECT_EQ(a.factor_ns, 4004);
  EXPECT_EQ(a.solve_ns, 5005);
  EXPECT_EQ(a.refine_count, 6006);
  for (int i = 0; i < an::kFactorReasons; ++i)
    EXPECT_EQ(a.by_reason[i], 10 + i + 100 * (i + 1)) << "reason " << i;

  const an::TranTelemetry full = filled_telemetry().tran;
  an::TranTelemetry sum;  // an empty run first: everything comes from `full`
  sum += full;
  EXPECT_EQ(sum.summary(), full.summary());
  EXPECT_EQ(serve::tran_stats_json(sum).dump(),
            serve::tran_stats_json(full).dump());

  an::TranTelemetry later;
  later.accepted_steps = 10;
  later.rejected_newton = 20;
  later.rejected_nonfinite = 30;
  later.newton_iterations = 40;
  later.min_dt_used = 1e-9;  // smaller: wins
  later.op_method = "source";  // not the first: dropped
  later.op_iterations = 99;
  later.factor_count = 7;
  later.by_reason[reason(an::FactorReason::kFullNewton)] = 7;
  sum += later;
  EXPECT_EQ(sum.accepted_steps, full.accepted_steps + 10);
  EXPECT_EQ(sum.rejected_newton, full.rejected_newton + 20);
  EXPECT_EQ(sum.rejected_nonfinite, full.rejected_nonfinite + 30);
  EXPECT_EQ(sum.newton_iterations, full.newton_iterations + 40);
  EXPECT_EQ(sum.min_dt_used, 1e-9);
  EXPECT_EQ(sum.op_method, "gmin");
  EXPECT_EQ(sum.op_iterations, 17);
  EXPECT_EQ(sum.factor_count, full.factor_count + 7);
  EXPECT_EQ(sum.by_reason[reason(an::FactorReason::kFullNewton)], 2611);
  EXPECT_EQ(sum.reuse_count, full.reuse_count);
  EXPECT_TRUE(sum.linear_fast_path_used);  // OR: `later` has it off
  EXPECT_TRUE(sum.budget_truncated);
  EXPECT_EQ(sum.budget_stop, "deadline");  // `later`'s is empty

  an::TranTelemetry last;
  last.min_dt_used = 0.0;  // none attempted: keeps 1e-9
  last.budget_stop = "steps";
  sum += last;
  EXPECT_EQ(sum.min_dt_used, 1e-9);
  EXPECT_EQ(sum.budget_stop, "steps");
  last.min_dt_used = 2e-9;  // larger: keeps 1e-9
  sum += last;
  EXPECT_EQ(sum.min_dt_used, 1e-9);
}

}  // namespace
