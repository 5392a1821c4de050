// The one structure-shared sample loop, behind an::monte_carlo_shared
// and an::run_transient_sweep (which the ensemble's fallbacks call).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "circuit/netlist.h"
#include "core/budget.h"
#include "core/parallel.h"

namespace msim::an {

// Scheduling and budget of one batch (McOptions, TranSweepOptions).
struct SampleOptions {
  int threads = 1;        // 0 = auto, 1 = serial, >= 2 = pool workers
  std::size_t chunk = 0;  // samples per scheduling block; 0 = auto
  // Polled before every sample: once it reports exhausted, no further
  // sample starts.  Null = unlimited.
  core::RunBudget* budget = nullptr;
};

// Runs samples 0..n-1, each on its own fresh netlist: build(i, nl), then
// run(i, nl).  Sample 0 runs first, serially, and primes its solver
// cache (pattern, symbolic LU, stamp slots) and its operating point;
// every later sample whose topology fingerprint matches adopts both
// between build and run -- the cache changes no number, the OP becomes
// the seed every solve_op of the sample starts Newton from -- and any
// other sample analyzes itself like a standalone run.  Callbacks must
// depend only on i and write only i's own slots; what a sample adopts is
// always sample 0's, so results are bit-identical at any thread count.
// Samples the budget stops are never built or run (callers pre-fill
// their result slots with a skip marker); with `note_steps` each sample
// counts one budget step.
inline void run_samples(
    std::size_t n, const SampleOptions& opt, bool note_steps,
    const std::function<void(std::size_t, ckt::Netlist&)>& build,
    const std::function<void(std::size_t, ckt::Netlist&)>& run) {
  const auto claim = [&] {
    if (!opt.budget) return true;
    if (opt.budget->exhausted()) return false;
    if (note_steps) opt.budget->note_step();
    return true;
  };
  if (n == 0 || !claim()) return;
  ckt::Netlist nl0;
  build(0, nl0);
  const std::uint64_t fp0 = nl0.topology_fingerprint();
  run(0, nl0);
  core::parallel_for_chunked(
      opt.threads, n - 1, opt.chunk,
      [&](std::size_t j) {
        if (!claim()) return;
        ckt::Netlist nl;
        build(j + 1, nl);
        if (nl.topology_fingerprint() == fp0) {
          nl.adopt_solver_cache(nl0);
          nl.adopt_op_seed(nl0);
        }
        run(j + 1, nl);
      },
      opt.budget);
}

}  // namespace msim::an
