// One netlist job, start to finish: parse, pre-pass, run every
// analysis directive, capture stdout/stderr byte streams.
//
// This is msim_cli's historical run() loop hoisted into the serve
// library so the one-shot CLI, the --jobs batch mode and the msim_serve
// daemon execute the exact same code path: a daemon job's captured
// output is byte-identical to the equivalent CLI invocation by
// construction, not by parallel maintenance of two output sequences.
//
// With a CacheRegistry attached, the job adopts the registry's shared
// solver structure for its topology before the first solve (warm jobs
// pay zero symbolic analysis and zero pattern searches) and publishes
// its own structure back on the way out.  Deterministic jobs (no
// wall-clock budget) additionally go through the registry's whole-
// result memo: an exact repeat returns the stored bytes verbatim.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/pss.h"
#include "analysis/range.h"
#include "circuit/lint.h"
#include "core/budget.h"
#include "serve/json.h"
#include "serve/registry.h"

namespace msim::serve {

// The most points a .dc, .ac or .noise sweep or a .tran may ask for,
// and the most steps one --pss period may take: a tiny-but-valid step
// would otherwise exhaust memory before any cancel or budget check runs.
inline constexpr double kMaxSweepPoints = 1e6;
// The most samples an --mc or --ensemble job may ask for: every sample
// holds its own parsed netlist and solution, so the count bounds what
// one job can allocate.
inline constexpr double kMaxSamples = 1e4;
// The largest --mc-seed a job may carry: above 2^53 a JSON number no
// longer holds every integer.
inline constexpr double kMaxSeed = 9007199254740992.0;

// Checks a count option read as a double (a JSON number, a command-line
// word) before any cast: "" when `v` is an integer in [0, limit], else
// an error line naming `key`.  NaN, infinities, fractions, negatives and
// values above the limit are all refused.
std::string check_count(const char* key, double v, double limit);

// Mirrors msim_cli's command-line options (minus the input path; the
// deck travels as text).
struct DeckOptions {
  std::string probe_arg;
  bool lint_only = false;   // human-readable lint report, then stop
  bool lint_json = false;   // JSON lint report, then stop
  bool lint_strict = false;
  bool range_json = false;  // value-range JSON report, then stop
  bool telemetry = true;
  bool tran_stats = false;
  double budget_ms = 0.0;   // wall-clock budget (0 = unlimited)
  int ensemble = 1;         // .tran lanes (> 1 = lockstep ensemble)
  bool pss = false;         // .tran -> shooting periodic steady state
  // Monte-Carlo job mode: > 1 turns every .op directive into an
  // N-sample MC over the deck (each sample re-parses the deck and
  // applies a 1% gaussian spread to every resistor; sample RNG streams
  // derive from mc_seed, so the statistics are deterministic and
  // thread-count independent -- an::monte_carlo_shared, on the one
  // structure-shared sample loop an::run_samples, underneath).
  int mc = 0;
  std::uint64_t mc_seed = 1;
  std::vector<std::string> lint_disable;
  // External budget for cooperative cancellation (the daemon arms one
  // per job so a `cancel` request can stop it mid-analysis).  When set
  // it REPLACES budget_ms; the caller owns it.
  core::RunBudget* budget = nullptr;
  // Whole-result memoization opt-out (per job; only meaningful with a
  // registry).  Budgeted or truncated jobs are never memoized.
  bool use_result_cache = true;
};

struct DeckResult {
  int exit_code = 0;
  std::string out;  // byte-exact stdout of the equivalent msim_cli run
  std::string err;  // byte-exact stderr ditto
  bool warm = false;           // adopted registry structure for its topology
  bool result_cached = false;  // whole-result memo hit (no solve ran)
};

// Runs every directive of `deck_text` and captures the output streams.
// Never throws: parse/setup errors land in the result as the CLI's
// "error: ..." line with exit code 1.
DeckResult run_deck(const std::string& deck_text, const DeckOptions& opt,
                    CacheRegistry* registry = nullptr);

// The JSON documents a job prints, as trees; run_deck prints each one's
// dump() on its own stdout line.
//   lint_json       --lint: {"errors","issues":[{"device","kind","line",
//                   "message","node","pass","severity"}],"warnings"}
//   range_json      --range: the value-range report; currents that are
//                   not bounded are left out
//   tran_stats_json --tran-stats after a .tran: the factorization
//                   census; "refactor_reasons" names the nonzero counts
//   pss_stats_json  --tran-stats after a --pss run: the shooting effort
Json lint_json(const std::vector<ckt::LintIssue>& issues);
Json range_json(const an::RangeReport& r);
Json tran_stats_json(const an::TranTelemetry& t);
Json pss_stats_json(const an::PssTelemetry& t);

// The option fields that select a job's output, flattened into a stable
// string; deck text + this signature key the whole-result memo.
// Exposed for tests.
std::string options_signature(const DeckOptions& opt);

// msim_cli --jobs: runs every deck file listed in `paths` through one
// shared registry.  Per job, `header` then the job's stdout go to
// `out`; the job's stderr goes to `err`.  Returns the maximum job exit
// code (2 for an unreadable file).
struct BatchResult {
  int exit_code = 0;
  int jobs = 0;
  int warm_jobs = 0;
  int cached_jobs = 0;
};
BatchResult run_batch(const std::vector<std::string>& paths,
                      const DeckOptions& opt, CacheRegistry& registry,
                      std::string& out, std::string& err);

// Reads a whole file; false when unreadable.
bool read_file(const std::string& path, std::string& out);

}  // namespace msim::serve
