// Monte-Carlo driver: builds N perturbed netlists, measures a scalar on
// each and collects summary statistics.
// Used for the gain-accuracy (dAcl <= 0.05 dB), offset and quiescent-
// current spread experiments.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "analysis/diag.h"
#include "analysis/sample_loop.h"
#include "circuit/netlist.h"
#include "core/faultpoint.h"
#include "numeric/rng.h"

namespace msim::an {

// Threads, chunk (samples are ~100 us for the mic rig, too cheap to pay
// a pool handoff each) and budget of one Monte-Carlo batch.
using McOptions = SampleOptions;

// One failed Monte-Carlo sample with its structured diagnosis.
struct McFailure {
  int sample = 0;   // 0-based sample index
  SolveDiag diag;
};

struct McStats {
  std::vector<double> samples;
  int failures = 0;
  // Structured diagnosis of every failed sample, sorted by sample index.
  std::vector<McFailure> failure_diags;

  // Failure census keyed by status name ("non_convergence": 3, ...).
  std::map<std::string, int> failure_causes() const {
    std::map<std::string, int> causes;
    for (const auto& f : failure_diags)
      ++causes[to_string(f.diag.status)];
    return causes;
  }

  double mean() const {
    if (samples.empty()) return 0.0;
    double s = 0.0;
    for (double v : samples) s += v;
    return s / static_cast<double>(samples.size());
  }
  double stddev() const {
    if (samples.size() < 2) return 0.0;
    const double m = mean();
    double s = 0.0;
    for (double v : samples) s += (v - m) * (v - m);
    return std::sqrt(s / static_cast<double>(samples.size() - 1));
  }
  double min() const {
    return samples.empty()
               ? 0.0
               : *std::min_element(samples.begin(), samples.end());
  }
  double max() const {
    return samples.empty()
               ? 0.0
               : *std::max_element(samples.begin(), samples.end());
  }
};

// Outcome of one diagnostic-aware Monte-Carlo trial: a value when the
// underlying solve succeeded, otherwise the solver's SolveDiag.
struct McTrial {
  double value = 0.0;
  SolveDiag diag;

  static McTrial of(double v) { return {v, {}}; }
  static McTrial failed(SolveDiag d) { return {0.0, std::move(d)}; }
};

// Structure-shared Monte-Carlo: the trial is split into `build` (derive
// sample i's perturbed netlist from its RNG stream) and `measure`
// (solve it, return the scalar / diagnosis), and the samples run through
// run_samples: sample 0 primes the solver cache and its operating point,
// every later sample with the same topology fingerprint adopts both, so
// its solve_op starts Newton from sample 0's x (one iteration on the
// Table-1 mic rig instead of 17 from zero).  Monte-Carlo perturbations move
// parameter VALUES, never topology, so in practice every sample shares.
// Failed samples (diag not ok, or a NaN value) are excluded from
// statistics and recorded with their structured cause in
// `failure_diags`.  Each sample counts one budget step; samples the
// budget stopped become structured kBudgetExceeded failures
// ("deadline_exceeded" in the detail), so statistics cover exactly the
// samples that completed -- a partial result, never an exception.
//
// Sample i's RNG seed is pre-derived from the root Rng before any sample
// runs -- the i-th derive_seed() draw -- and the reduction runs in
// sample order, so the statistics are bit-identical at any thread count.
inline McStats monte_carlo_shared(
    int n_samples, num::Rng& rng,
    const std::function<void(num::Rng&, ckt::Netlist&)>& build,
    const std::function<McTrial(ckt::Netlist&)>& measure,
    const McOptions& opt = {}) {
  const std::size_t n = static_cast<std::size_t>(std::max(n_samples, 0));
  std::vector<std::uint64_t> seeds(n);
  for (auto& s : seeds) s = rng.derive_seed();

  // Pre-fill every slot with a budget-skip marker: when the budget
  // expires, workers stop claiming samples and the untouched slots must
  // reduce to structured failures rather than silent value-0 samples.
  std::vector<McTrial> trials(
      n, opt.budget ? McTrial::failed(budget_stop_diag(
                          core::StopReason::kNone, "montecarlo",
                          "sample skipped: deadline_exceeded (budget "
                          "expired before this sample ran)"))
                    : McTrial{});
  run_samples(
      n, opt, /*note_steps=*/true,
      [&](std::size_t i, ckt::Netlist& nl) {
        num::Rng sample_rng(seeds[i]);
        build(sample_rng, nl);
      },
      [&](std::size_t i, ckt::Netlist& nl) {
        McTrial t = measure(nl);
        // Deterministic poison: fault-injection site addressed by sample
        // index, exercising the partial-failure recovery path (one NaN
        // sample among N -> N-1 good stats + one structured diag).
        if (MSIM_FAULTPOINT_AT("mc_sample_nan", static_cast<long long>(i)))
          t = McTrial::of(std::numeric_limits<double>::quiet_NaN());
        trials[i] = std::move(t);
      });

  McStats st;
  st.samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    McTrial& t = trials[i];
    if (t.diag.ok() && !std::isnan(t.value)) {
      st.samples.push_back(t.value);
      continue;
    }
    ++st.failures;
    if (t.diag.ok()) {  // NaN with no diagnosis attached
      t.diag.status = SolveStatus::kNonFinite;
      t.diag.detail = "trial returned NaN";
    }
    st.failure_diags.push_back({static_cast<int>(i), std::move(t.diag)});
  }
  return st;
}

}  // namespace msim::an
