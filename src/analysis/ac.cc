#include "analysis/ac.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>

#include "analysis/mna.h"
#include "analysis/structural.h"
#include "core/parallel.h"

namespace msim::an {
namespace {

// First failure inside one frequency chunk.
struct ChunkFailure {
  std::size_t index = static_cast<std::size_t>(-1);  // global freq index
  int singular_col = -1;
  double freq_hz = 0.0;
  SolveStatus status = SolveStatus::kSingularMatrix;
};

}  // namespace

std::vector<double> log_frequencies(double f_start_hz, double f_stop_hz,
                                    int points_per_decade) {
  if (f_stop_hz == f_start_hz) return {f_start_hz};
  std::vector<double> f;
  const double lg0 = std::log10(f_start_hz);
  const double lg1 = std::log10(f_stop_hz);
  const int n = std::max(1, static_cast<int>(
                                std::ceil((lg1 - lg0) * points_per_decade)));
  f.reserve(static_cast<std::size_t>(n) + 1);
  for (int i = 0; i <= n; ++i)
    f.push_back(std::pow(10.0, lg0 + (lg1 - lg0) * i / n));
  return f;
}

AcResult run_ac_diag(ckt::Netlist& nl,
                     const std::vector<double>& freqs_hz,
                     const AcOptions& opt) {
  AcResult r;
  r.freqs_hz = freqs_hz;
  r.diag = frequency_grid_diag(freqs_hz, "ac", true);
  if (!r.diag.ok()) return r;
  if (opt.lint) {
    SolveDiag pre = preflight(nl);
    if (!pre.ok()) {
      r.diag = std::move(pre);
      return r;
    }
  }
  nl.assign_unknowns();

  const std::size_t nf = freqs_hz.size();
  // The sweep's one stamp pass, made serially; the chunks share it.
  const AcImage image(nl, opt.solver, opt.gshunt);
  int threads = opt.threads == 0 ? core::default_thread_count()
                                 : std::max(1, opt.threads);
  const std::size_t nchunks =
      std::min<std::size_t>(static_cast<std::size_t>(threads), nf ? nf : 1);

  // Each chunk owns one ComplexSystem over the shared image (symbolic
  // LU reused within the chunk) and writes only its own solution slots
  // and failure record, so the outcome is identical at any thread
  // count.  Solution slots are pre-sized here so the grid loop itself
  // allocates nothing.
  std::vector<num::ComplexVector> sols(nf);
  const std::size_t nun = static_cast<std::size_t>(nl.unknown_count());
  for (auto& s : sols) s.resize(nun);
  std::vector<ChunkFailure> fails(nchunks);
  // Budget pre-fill: a chunk the budget prevents from ever starting must
  // still surface as "grid truncated at its first frequency" rather than
  // as a prefix of all-zero solutions.
  if (opt.budget) {
    for (std::size_t c = 0; c < nchunks; ++c) {
      const std::size_t lo = nf * c / nchunks;
      if (lo < nf)
        fails[c] = {lo, -1, freqs_hz[lo], SolveStatus::kBudgetExceeded};
    }
  }

  core::parallel_for(
      static_cast<int>(nchunks), nchunks,
      [&](std::size_t c) {
        const std::size_t lo = nf * c / nchunks;
        const std::size_t hi = nf * (c + 1) / nchunks;
        if (lo >= hi) return;
        ComplexSystem sys(image);
        for (std::size_t i = lo; i < hi; ++i) {
          if (opt.budget) {
            const core::StopReason stop = opt.budget->stop_reason();
            if (stop != core::StopReason::kNone) {
              fails[c] = {i, -1, freqs_hz[i],
                          stop == core::StopReason::kCancelled
                              ? SolveStatus::kCancelled
                              : SolveStatus::kBudgetExceeded};
              return;
            }
            opt.budget->note_step();
          }
          sys.assemble(2.0 * M_PI * freqs_hz[i]);
          if (!sys.factor()) {
            fails[c] = {i, sys.singular_col(), freqs_hz[i],
                        SolveStatus::kSingularMatrix};
            return;  // later points of this chunk would be discarded
          }
          sys.solve(sols[i]);
        }
        fails[c] = ChunkFailure{};  // chunk completed: clear the marker
      },
      opt.budget);

  // Serial semantics: the lowest failing frequency index wins and the
  // result keeps exactly the solutions before it.
  const ChunkFailure* first = nullptr;
  for (const auto& f : fails)
    if (f.index != static_cast<std::size_t>(-1) &&
        (!first || f.index < first->index))
      first = &f;

  const std::size_t keep = first ? first->index : nf;
  r.solutions.assign(std::make_move_iterator(sols.begin()),
                     std::make_move_iterator(sols.begin() +
                                             static_cast<std::ptrdiff_t>(keep)));
  if (first) {
    if (is_budget_stop(first->status)) {
      r.truncated = true;
      const core::StopReason reason =
          opt.budget ? opt.budget->stop_reason()
                     : core::StopReason::kDeadline;
      r.diag = budget_stop_diag(
          reason, "ac",
          "grid truncated at f = " + std::to_string(first->freq_hz) +
              " Hz (" + std::to_string(keep) + " of " +
              std::to_string(nf) + " points solved)");
    } else {
      r.diag.status = first->status;
      r.diag.stage = "ac";
      r.diag.unknown = unknown_label(nl, first->singular_col);
      r.diag.device = device_touching_unknown(nl, first->singular_col);
      r.diag.detail = "f = " + std::to_string(first->freq_hz) + " Hz";
    }
  }
  return r;
}

AcResult run_ac(ckt::Netlist& nl, const std::vector<double>& freqs_hz,
                const AcOptions& opt) {
  AcResult r = run_ac_diag(nl, freqs_hz, opt);
  if (!r.ok())
    throw std::runtime_error("AC analysis failed: " + r.diag.message());
  return r;
}

}  // namespace msim::an
