// Ensemble transient tests: lockstep Monte-Carlo vs the per-sample
// oracle (N=1 bit-identity, perturbed-sample statistics agreement,
// thread-count determinism), budget truncation with structured partial
// results, and the dt-cohort split/rejoin machinery driven by the
// lane-addressed ensemble_lane_nan faultpoint.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/montecarlo.h"
#include "analysis/transient.h"
#include "bench_util.h"
#include "circuit/netlist.h"
#include "core/budget.h"
#include "core/faultpoint.h"
#include "core/mic_amp.h"
#include "devices/diode.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "golden_util.h"
#include "numeric/rng.h"
#include "process/process.h"

namespace {

using namespace msim;
namespace fp = core::faultpoint;

// Mic-amp tone rig, Monte-Carlo style: sample i perturbs both resistor
// strings with the process mismatch sigma from a per-sample RNG stream
// pre-derived from the index (configure must depend only on i).
an::TranOptions mic_tran_options() {
  an::TranOptions t;
  t.t_stop = 0.2e-3;
  t.dt = 2e-6;
  return t;
}

void configure_mic_sample(std::size_t i, ckt::Netlist& nl,
                          an::TranOptions& t) {
  const auto pm = proc::ProcessModel::cmos12();
  auto parts = bench::build_mic_into(nl);
  parts.vinp->set_waveform(dev::Waveform::sine(0.0, 1e-3, 1e3));
  parts.vinn->set_waveform(dev::Waveform::sine(0.0, -1e-3, 1e3));
  num::Rng srng(1000 + 17 * static_cast<std::uint64_t>(i));
  bench::perturb_mic_strings(parts.mic, pm, srng);
  parts.mic.set_gain_code(5);
  t = mic_tran_options();
}

void expect_bit_identical(const an::TranResult& a, const an::TranResult& b,
                          const std::string& what) {
  ASSERT_EQ(a.ok, b.ok) << what;
  ASSERT_EQ(a.time.size(), b.time.size()) << what;
  ASSERT_EQ(a.x.size(), b.x.size()) << what;
  for (std::size_t k = 0; k < a.x.size(); ++k) {
    EXPECT_EQ(a.time[k], b.time[k]) << what << " step " << k;
    ASSERT_EQ(a.x[k].size(), b.x[k].size());
    for (std::size_t u = 0; u < a.x[k].size(); ++u)
      EXPECT_EQ(a.x[k][u], b.x[k][u])
          << what << " step " << k << " unknown " << u;
  }
}

// N=1 is the bit-identity contract: the ensemble driver must fall back
// to the per-sample path and reproduce run_transient exactly.
TEST(Ensemble, SingleSampleFallsBackBitIdentical) {
  ckt::Netlist ref_nl;
  an::TranOptions ref_t;
  configure_mic_sample(0, ref_nl, ref_t);
  const auto ref = an::run_transient(ref_nl, ref_t);
  ASSERT_TRUE(ref.ok) << ref.diag.message();

  an::TranEnsembleOptions eo;
  const auto er =
      an::run_transient_ensemble(1, configure_mic_sample, eo);
  ASSERT_EQ(er.results.size(), 1u);
  EXPECT_FALSE(er.ensemble.used_ensemble);
  EXPECT_EQ(er.ensemble.fallback_reason, "single_sample");
  expect_bit_identical(er.results[0], ref, "n=1");
}

// Lockstep vs per-sample on the perturbed mic-amp MC: every sample's
// waveform must agree to solver tolerance (the engines take different
// Newton paths -- the lockstep lanes warm-start their OP from the
// nominal one -- but converge to the same tolerances), and the lockstep
// engine must actually engage.
TEST(Ensemble, MatchesPerSampleOnPerturbedMicAmp) {
  constexpr std::size_t kSamples = 8;
  const auto ps = an::run_transient_sweep(kSamples, configure_mic_sample);
  ASSERT_EQ(ps.size(), kSamples);

  an::TranEnsembleOptions eo;
  eo.lane_width = 4;  // two blocks of four lanes
  const auto er =
      an::run_transient_ensemble(kSamples, configure_mic_sample, eo);
  ASSERT_EQ(er.results.size(), kSamples);
  EXPECT_TRUE(er.ensemble.used_ensemble);
  EXPECT_TRUE(er.ensemble.fallback_reason.empty())
      << er.ensemble.fallback_reason;
  EXPECT_EQ(er.ensemble.blocks, 2);
  EXPECT_EQ(er.ensemble.lane_width, 4);
  EXPECT_GT(er.ensemble.samples_per_sec, 0.0);

  for (std::size_t i = 0; i < kSamples; ++i) {
    const auto& pe = ps[i];
    const auto& en = er.results[i];
    ASSERT_TRUE(pe.ok) << "per-sample " << i << ": " << pe.diag.message();
    ASSERT_TRUE(en.ok) << "ensemble " << i << ": " << en.diag.message();
    ASSERT_EQ(en.time.size(), pe.time.size()) << "sample " << i;
    for (std::size_t k = 0; k < pe.x.size(); ++k) {
      ASSERT_EQ(en.time[k], pe.time[k]) << "sample " << i;
      for (std::size_t u = 0; u < pe.x[k].size(); ++u)
        EXPECT_NEAR(en.x[k][u], pe.x[k][u], 1e-6)
            << "sample " << i << " step " << k << " unknown " << u;
    }
  }
}

// Determinism contract: blocks are the scheduling unit and each block
// is serial inside, so every waveform and telemetry counter must be
// bit-identical at 1, 2 and 8 threads.
TEST(Ensemble, BitIdenticalAcrossThreadCounts) {
  constexpr std::size_t kSamples = 8;
  an::TranEnsembleOptions base;
  base.threads = 1;
  base.lane_width = 4;
  const auto ref =
      an::run_transient_ensemble(kSamples, configure_mic_sample, base);
  for (const auto& r : ref.results) ASSERT_TRUE(r.ok);

  for (int threads : {2, 8}) {
    an::TranEnsembleOptions eo = base;
    eo.threads = threads;
    const auto got =
        an::run_transient_ensemble(kSamples, configure_mic_sample, eo);
    ASSERT_EQ(got.results.size(), kSamples);
    EXPECT_EQ(got.ensemble.cohort_splits, ref.ensemble.cohort_splits);
    EXPECT_EQ(got.ensemble.cohort_rejoins, ref.ensemble.cohort_rejoins);
    for (std::size_t i = 0; i < kSamples; ++i) {
      expect_bit_identical(got.results[i], ref.results[i],
                           "threads=" + std::to_string(threads) +
                               " sample " + std::to_string(i));
      EXPECT_EQ(got.results[i].telemetry.accepted_steps,
                ref.results[i].telemetry.accepted_steps);
      EXPECT_EQ(got.results[i].telemetry.newton_iterations,
                ref.results[i].telemetry.newton_iterations);
    }
  }
}

// Lockstep full Newton against its golden: every lane factors on every
// iteration and its last recorded state matches to the bit.  Each lane
// starts Newton from its own predictor; the golden recorded before the
// predictor stays as a tolerance reference (1e-9 of the span of its
// states), and the saving is pinned: every step of these lanes took 2
// iterations from the last accepted point, and 1.89 from the predictor.
TEST(Ensemble, LockstepFinalsMatchFullNewtonGolden) {
  constexpr std::size_t kSamples = 4;
  an::TranEnsembleOptions eo;
  eo.threads = 1;
  eo.lane_width = 4;
  const auto er =
      an::run_transient_ensemble(kSamples, configure_mic_sample, eo);
  ASSERT_TRUE(er.ensemble.used_ensemble) << er.ensemble.fallback_reason;
  EXPECT_EQ(er.ensemble.fallback_lanes, 0);
  // Per lane, the reference holds the lane index, t, then the state.
  const auto ref = golden::numbers(
      golden::read("transient/mic_ensemble_finals.txt"));
  std::vector<double> ref_x, got_x;
  std::size_t pos = 0;
  std::string text;
  long iterations = 0, steps = 0;
  for (std::size_t i = 0; i < kSamples; ++i) {
    const auto& r = er.results[i];
    ASSERT_TRUE(r.ok) << "sample " << i << ": " << r.diag.message();
    ASSERT_FALSE(r.x.empty());
    char buf[64];
    std::snprintf(buf, sizeof buf, "lane %zu t %a\n", i, r.time.back());
    text += buf + golden::hex_rows(r.x.back());
    iterations += r.telemetry.newton_iterations;
    steps += r.telemetry.accepted_steps;
    const auto& xf = r.x.back();
    ASSERT_LE(pos + 2 + xf.size(), ref.size());
    EXPECT_EQ(ref[pos], static_cast<double>(i));
    EXPECT_EQ(ref[pos + 1], r.time.back());
    ref_x.insert(ref_x.end(), ref.begin() + pos + 2,
                 ref.begin() + pos + 2 + xf.size());
    got_x.insert(got_x.end(), xf.begin(), xf.end());
    pos += 2 + xf.size();
  }
  EXPECT_EQ(pos, ref.size());
  golden::expect("transient/mic_ensemble_finals_predictor.txt", text);
  golden::expect_near(ref_x, got_x, 1e-9 * golden::span(ref_x));
  EXPECT_EQ(er.ensemble.factor_count, iterations);
  EXPECT_LE(iterations, 1.95 * steps);
}

// Budget expiry mid-ensemble: the in-flight block's lanes return
// structured partial results (truncated waveform + checkpoint), blocks
// never started keep the "case not run" marker, and nothing throws.
TEST(Ensemble, BudgetTruncationReportsPerSampleDiags) {
  constexpr std::size_t kSamples = 8;
  core::RunBudget budget(1e9);
  budget.max_steps = 40;  // trips mid-way through block 0
  an::TranEnsembleOptions eo;
  eo.threads = 1;  // deterministic: block 0 runs, block 1 never starts
  eo.lane_width = 4;
  eo.budget = &budget;
  const auto er =
      an::run_transient_ensemble(kSamples, configure_mic_sample, eo);
  ASSERT_EQ(er.results.size(), kSamples);

  int truncated = 0, not_run = 0;
  for (std::size_t i = 0; i < kSamples; ++i) {
    const auto& r = er.results[i];
    EXPECT_FALSE(r.ok) << "sample " << i;
    ASSERT_TRUE(an::is_budget_stop(r.diag.status))
        << "sample " << i << ": " << r.diag.message();
    if (r.truncated) {
      ++truncated;
      EXPECT_TRUE(r.telemetry.budget_truncated);
      EXPECT_GT(r.t_checkpoint, 0.0);
      EXPECT_FALSE(r.x_checkpoint.empty());
      EXPECT_GT(r.telemetry.accepted_steps, 0);
    } else {
      ++not_run;
      EXPECT_NE(r.diag.detail.find("case not run"), std::string::npos)
          << r.diag.detail;
    }
  }
  EXPECT_EQ(truncated, 4);  // the whole in-flight block checkpoints
  EXPECT_EQ(not_run, 4);    // the second block never started
}

// Cohort machinery: poisoning one lane's RHS (lane-addressed
// ensemble_lane_nan faultpoint) must reject only that lane -- it splits
// off with its own halving ladder, recovers once the site disarms, and
// rejoins at the base-step boundary.  The unfaulted lanes' waveforms
// must stay bit-identical to a clean run: a stiff sample never
// perturbs its cohort-mates.
TEST(Ensemble, CohortSplitAndRejoinOnFaultedLane) {
  constexpr std::size_t kSamples = 4;
  an::TranEnsembleOptions eo;
  eo.lane_width = 4;
  const auto clean =
      an::run_transient_ensemble(kSamples, configure_mic_sample, eo);
  ASSERT_TRUE(clean.ensemble.used_ensemble);
  for (const auto& r : clean.results) ASSERT_TRUE(r.ok);

  // Poison lane 2's first two assemblies: the first sub-step rejects
  // (fresh factorization, non-finite update), the dt/2 retry rejects
  // again, the dt/4 retry runs clean.
  fp::arm("ensemble_lane_nan", /*fires=*/2, /*skips=*/0, /*match=*/2);
  const auto faulted =
      an::run_transient_ensemble(kSamples, configure_mic_sample, eo);
  fp::disarm("ensemble_lane_nan");
  ASSERT_TRUE(faulted.ensemble.used_ensemble);

  EXPECT_GE(faulted.ensemble.cohort_splits,
            clean.ensemble.cohort_splits + 1);
  EXPECT_GE(faulted.ensemble.cohort_rejoins,
            clean.ensemble.cohort_rejoins + 1);
  EXPECT_GE(faulted.ensemble.max_cohorts, 2);

  for (std::size_t i = 0; i < kSamples; ++i) {
    ASSERT_TRUE(faulted.results[i].ok)
        << "sample " << i << ": " << faulted.results[i].diag.message();
    if (i == 2) {
      // The faulted lane pays rejections and extra sub-steps...
      EXPECT_GT(faulted.results[i].telemetry.rejected_nonfinite, 0);
      EXPECT_GT(faulted.results[i].telemetry.accepted_steps,
                clean.results[i].telemetry.accepted_steps);
      EXPECT_LT(faulted.results[i].telemetry.min_dt_used,
                clean.results[i].telemetry.min_dt_used);
    } else {
      // ...while its cohort-mates are untouched, bit for bit.
      expect_bit_identical(faulted.results[i], clean.results[i],
                           "unfaulted sample " + std::to_string(i));
    }
  }

  // Lockstep solver effort is counted once, for the whole ensemble
  // (every factorization a full Newton one); a lane's own counters stay
  // zero.
  const an::TranEnsembleTelemetry& et = faulted.ensemble;
  EXPECT_GT(et.factor_count, 0);
  EXPECT_EQ(et.by_reason[static_cast<int>(an::FactorReason::kFullNewton)],
            et.factor_count);
  EXPECT_GT(et.stamp_ns, 0);
  EXPECT_EQ(faulted.results[0].telemetry.factor_count, 0);
}

// The sweep's structural sharing (every case adopts case 0's solver
// cache) must keep the thread-determinism contract and agree with a
// standalone run_transient on a fresh netlist to solver tolerance (the
// shared pivot order was chosen on case 0).
TEST(Ensemble, SweepShareStructureMatchesUnshared) {
  constexpr std::size_t kCases = 4;
  an::TranSweepOptions shared;
  shared.threads = 1;
  const auto got =
      an::run_transient_sweep(kCases, configure_mic_sample, shared);
  ASSERT_EQ(got.size(), kCases);
  for (std::size_t i = 0; i < kCases; ++i) {
    ckt::Netlist nl;
    an::TranOptions t;
    configure_mic_sample(i, nl, t);
    const auto base = an::run_transient(nl, t);
    ASSERT_TRUE(base.ok);
    ASSERT_TRUE(got[i].ok) << got[i].diag.message();
    ASSERT_EQ(got[i].x.size(), base.x.size());
    for (std::size_t k = 0; k < base.x.size(); ++k)
      for (std::size_t u = 0; u < base.x[k].size(); ++u)
        EXPECT_NEAR(got[i].x[k][u], base.x[k][u], 1e-6)
            << "case " << i << " step " << k;
  }

  // Determinism across thread counts with sharing on.
  an::TranSweepOptions shared8 = shared;
  shared8.threads = 8;
  shared8.chunk = 1;
  const auto got8 =
      an::run_transient_sweep(kCases, configure_mic_sample, shared8);
  for (std::size_t i = 0; i < kCases; ++i)
    expect_bit_identical(got8[i], got[i],
                         "shared sweep case " + std::to_string(i));
}

// Nonlinear RC rig whose case kRewired moves C1 from node a to node b:
// the node, device and unknown counts stay, so only the topology
// fingerprint tells the two structures apart.
constexpr std::size_t kRewired = 2;

void configure_rewired_rc(std::size_t i, ckt::Netlist& nl,
                          an::TranOptions& t) {
  const auto in = nl.node("in");
  const auto a = nl.node("a");
  const auto b = nl.node("b");
  nl.add<dev::VSource>("Vin", in, ckt::kGround,
                       dev::Waveform::sine(0.0, 1.0, 10e3));
  nl.add<dev::Resistor>("R1", in, a, 1e3 * (1.0 + 0.01 * i));
  nl.add<dev::Resistor>("R2", a, b, 2e3);
  nl.add<dev::Diode>("D1", b, ckt::kGround, dev::DiodeParams{});
  nl.add<dev::Capacitor>("C1", i == kRewired ? b : a, ckt::kGround, 10e-9);
  t.t_stop = 50e-6;
  t.dt = 1e-6;
}

// Notes the solver-cache skeleton a case ran on.
struct SkeletonProbe : an::TranStepHook {
  const void* skeleton = nullptr;
  void on_accepted(const ckt::Netlist& nl, an::RealSystem&,
                   const an::AssembleParams&, const num::RealVector&,
                   const num::RealVector&) override {
    skeleton = nl.solver_cache().skeleton.get();
  }
};

// A case whose topology differs from case 0's must not adopt case 0's
// cache, and must run exactly as a standalone run_transient would.
TEST(Ensemble, SweepTopologyMismatchRunsStandalone) {
  constexpr std::size_t kCases = 4;
  std::vector<SkeletonProbe> probes(kCases);
  const auto got = an::run_transient_sweep(
      kCases, [&](std::size_t i, ckt::Netlist& nl, an::TranOptions& t) {
        configure_rewired_rc(i, nl, t);
        t.step_hook = &probes[i];
      });
  ASSERT_NE(probes[0].skeleton, nullptr);
  for (std::size_t i = 1; i < kCases; ++i)
    EXPECT_EQ(probes[i].skeleton == probes[0].skeleton, i != kRewired)
        << "case " << i;
  ASSERT_TRUE(got[kRewired].ok) << got[kRewired].diag.message();
  ckt::Netlist nl;
  an::TranOptions t;
  configure_rewired_rc(kRewired, nl, t);
  expect_bit_identical(got[kRewired], an::run_transient(nl, t), "rewired");
}

// The ensemble's topology_differs fallback is the plain sweep.
TEST(Ensemble, TopologyDiffersFallbackEqualsSweep) {
  constexpr std::size_t kCases = 4;
  const auto er = an::run_transient_ensemble(kCases, configure_rewired_rc);
  EXPECT_EQ(er.ensemble.fallback_reason, "topology_differs");
  const auto sweep = an::run_transient_sweep(kCases, configure_rewired_rc);
  ASSERT_EQ(er.results.size(), kCases);
  for (std::size_t i = 0; i < kCases; ++i) {
    ASSERT_TRUE(sweep[i].ok) << sweep[i].diag.message();
    expect_bit_identical(er.results[i], sweep[i], "case " + std::to_string(i));
  }
}

// Lockstep lanes start from the operating point at t = 0, so a run that
// starts its clock elsewhere is the plain sweep: each sample starts from
// its own operating point at t_start.
TEST(Ensemble, StartTimeFallbackEqualsSweep) {
  constexpr std::size_t kSamples = 3;
  const auto configure = [](std::size_t i, ckt::Netlist& nl,
                            an::TranOptions& t) {
    configure_mic_sample(i, nl, t);
    t.t_start = 0.25e-3;
    t.t_stop = 0.35e-3;
  };
  const auto er = an::run_transient_ensemble(kSamples, configure);
  EXPECT_FALSE(er.ensemble.used_ensemble);
  EXPECT_EQ(er.ensemble.fallback_reason, "t_start");
  const auto sweep = an::run_transient_sweep(kSamples, configure);
  ASSERT_EQ(er.results.size(), kSamples);
  for (std::size_t i = 0; i < kSamples; ++i) {
    ASSERT_TRUE(sweep[i].ok) << sweep[i].diag.message();
    EXPECT_EQ(sweep[i].time.front(), 0.25e-3);
    expect_bit_identical(er.results[i], sweep[i],
                         "sample " + std::to_string(i));
  }
}

// Structure-shared Monte-Carlo driver: statistics bit-identical across
// thread counts while adopting the sample-0 solver cache everywhere.
TEST(Ensemble, MonteCarloSharedDeterministicAcrossThreads) {
  const auto pm = proc::ProcessModel::cmos12();
  auto build = [&pm](num::Rng& srng, ckt::Netlist& nl) {
    auto parts = bench::build_mic_into(nl);
    bench::perturb_mic_strings(parts.mic, pm, srng);
    parts.mic.set_gain_code(5);
  };
  auto measure = [](ckt::Netlist& nl) {
    an::OpOptions oo;
    const auto op = an::solve_op(nl, oo);
    if (!op.converged) return an::McTrial::failed(op.diag);
    return an::McTrial::of(op.x[0]);
  };

  an::McStats ref;
  for (int threads : {1, 2, 8}) {
    num::Rng rng(42);
    an::McOptions mo;
    mo.threads = threads;
    const auto st =
        an::monte_carlo_shared(12, rng, build, measure, mo);
    EXPECT_EQ(st.failures, 0);
    ASSERT_EQ(st.samples.size(), 12u);
    if (threads == 1) {
      ref = st;
      EXPECT_GT(st.stddev(), 0.0);  // perturbations actually vary
    } else {
      for (std::size_t i = 0; i < ref.samples.size(); ++i)
        EXPECT_EQ(st.samples[i], ref.samples[i]) << "threads=" << threads;
    }
  }
}

}  // namespace
