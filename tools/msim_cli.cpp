// msim_cli: run SPICE-format netlists from the command line.
//
//   msim_cli circuit.sp [--probe node1,node2,...] [--lint-only]
//                       [--lint] [--lint-strict] [--range]
//                       [--lint-disable pass1,pass2,...]
//                       [--no-telemetry] [--tran-stats]
//
// Executes the analysis directives found in the file:
//   .op                          operating point (all node voltages)
//   .dc <vsrc> <start> <stop> <step>
//   .ac dec <pts/dec> <fstart> <fstop>
//   .tran <step> <stop>
//   .noise <out_node> <input_src> dec <pts/dec> <fstart> <fstop>
// Sweep results print as CSV on stdout (columns: sweep variable, then
// the probed nodes; default probes = every named node up to 8).
//
// Every run starts with the static pre-pass (lint + structural MNA
// analysis): warnings (floating nodes, current-source cutsets, dangling
// terminals) go to stderr, errors (duplicate device names,
// voltage-source loops, structural singularity) abort with exit code 3.
// `--lint` prints the machine-readable JSON report to stdout and exits
// (0 clean / 1 warnings / 3 errors); `--lint-only` is the historical
// human-readable equivalent.  `--lint-disable` skips named passes and
// `--lint-strict` treats warnings as fatal.  Solver failures print the
// structured SolveDiag (cause, offending node/device, homotopy stage);
// transients additionally print step-rejection telemetry.
// `--tran-stats` prints the factorization census (fresh factorizations,
// linear-fast-path reuses, refactor reasons) plus the
// stamp_ns / factor_ns / solve_ns wall-time breakdown as one JSON line
// (where does solver time go: assembly, factorization, or solves).
// `--budget-ms N` runs every analysis under a shared wall-clock
// RunBudget: on expiry the analysis returns its structured partial
// result (truncated waveform / solved grid prefix) and the CLI reports
// the cut on stderr with exit code 4 instead of hanging.
// `--ensemble N` runs each .tran as an N-lane lockstep ensemble (N
// identical copies of the deck advanced together through
// run_transient_ensemble); lane 0's waveform is reported, and the
// telemetry on stderr and in the --tran-stats JSON describe the whole
// run (every lane plus the lockstep blocks' solver effort).
// `--pss` replaces each .tran with the shooting-Newton periodic
// steady-state solve; the CSV holds exactly one coherent steady period.
// `--mc N` turns each .op into an N-sample Monte-Carlo run (1% gaussian
// resistor spread, statistics over the first probe; deterministic
// stream from `--mc-seed K`).  N and K must be integers: N in
// [0, 10000], K in [0, 2^53]; anything else exits 2 with an error line.
// `--jobs list.txt` batch mode: runs every deck file named in the list
// (one path per line, '#' comments) through ONE shared solver-cache
// registry -- repeated topologies adopt the first job's sparsity
// pattern / symbolic LU / stamp slots instead of re-deriving them, and
// exact job repeats return memoized results.  Exit code is the worst
// job's; a per-batch summary goes to stderr.
//
// The execution core lives in src/serve/deck.cc (serve::run_deck),
// shared verbatim with the msim_serve daemon: a daemon job's bytes are
// this CLI's bytes by construction.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "serve/deck.h"
#include "serve/registry.h"

using namespace msim;

namespace {

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

// Job list: one deck path per line; blank lines and '#' comments skip.
// Reads the count word after `flag` (--mc, --ensemble, --mc-seed) into
// `v`.  A word that is not wholly a number reads as NaN, so
// serve::check_count refuses it with the fractions, negatives and
// values over `limit`; the refusal is printed as an error line.
bool read_count(const char* flag, const char* word, double limit,
                double& v) {
  char* end = nullptr;
  v = std::strtod(word, &end);
  if (end == word || *end != '\0') v = std::nan("");
  const std::string e = serve::check_count(flag, v, limit);
  if (e.empty()) return true;
  std::fprintf(stderr, "error: %s\n", e.c_str());
  return false;
}

bool read_job_list(const std::string& path, std::vector<std::string>& out) {
  std::string text;
  if (!serve::read_file(path, text)) return false;
  std::string cur;
  auto flush = [&] {
    while (!cur.empty() && (cur.back() == ' ' || cur.back() == '\t' ||
                            cur.back() == '\r'))
      cur.pop_back();
    std::size_t b = 0;
    while (b < cur.size() && (cur[b] == ' ' || cur[b] == '\t')) ++b;
    if (b < cur.size() && cur[b] != '#') out.push_back(cur.substr(b));
    cur.clear();
  };
  for (char c : text) {
    if (c == '\n')
      flush();
    else
      cur.push_back(c);
  }
  flush();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path, jobs_path;
  serve::DeckOptions opt;
  double count = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--probe") == 0 && i + 1 < argc)
      opt.probe_arg = argv[++i];
    else if (std::strcmp(argv[i], "--lint-only") == 0)
      opt.lint_only = true;
    else if (std::strcmp(argv[i], "--lint") == 0)
      opt.lint_json = true;
    else if (std::strcmp(argv[i], "--lint-strict") == 0)
      opt.lint_strict = true;
    else if (std::strcmp(argv[i], "--range") == 0)
      opt.range_json = true;
    else if (std::strcmp(argv[i], "--lint-disable") == 0 && i + 1 < argc)
      opt.lint_disable = split_csv(argv[++i]);
    else if (std::strcmp(argv[i], "--no-telemetry") == 0)
      opt.telemetry = false;
    else if (std::strcmp(argv[i], "--tran-stats") == 0)
      opt.tran_stats = true;
    else if (std::strcmp(argv[i], "--budget-ms") == 0 && i + 1 < argc)
      opt.budget_ms = std::atof(argv[++i]);
    else if (std::strcmp(argv[i], "--ensemble") == 0 && i + 1 < argc) {
      if (!read_count("--ensemble", argv[++i], serve::kMaxSamples, count))
        return 2;
      opt.ensemble = static_cast<int>(count);
    }
    else if (std::strcmp(argv[i], "--pss") == 0)
      opt.pss = true;
    else if (std::strcmp(argv[i], "--mc") == 0 && i + 1 < argc) {
      if (!read_count("--mc", argv[++i], serve::kMaxSamples, count))
        return 2;
      opt.mc = static_cast<int>(count);
    } else if (std::strcmp(argv[i], "--mc-seed") == 0 && i + 1 < argc) {
      if (!read_count("--mc-seed", argv[++i], serve::kMaxSeed, count))
        return 2;
      opt.mc_seed = static_cast<std::uint64_t>(count);
    }
    else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc)
      jobs_path = argv[++i];
    else if (std::strcmp(argv[i], "--no-result-cache") == 0)
      opt.use_result_cache = false;
    else
      path = argv[i];
  }
  if (path.empty() && jobs_path.empty()) {
    std::fprintf(stderr,
                 "usage: msim_cli <netlist.sp> [--probe n1,n2,...] "
                 "[--lint] [--lint-only] [--lint-strict] [--range] "
                 "[--lint-disable p1,p2,...] [--no-telemetry] "
                 "[--tran-stats] [--budget-ms N] [--ensemble N] "
                 "[--pss] [--mc N] [--mc-seed K]\n"
                 "       msim_cli --jobs list.txt [job options]\n");
    return 2;
  }

  if (!jobs_path.empty()) {
    std::vector<std::string> paths;
    if (!read_job_list(jobs_path, paths)) {
      std::fprintf(stderr, "error: cannot read job list %s\n",
                   jobs_path.c_str());
      return 2;
    }
    serve::CacheRegistry registry;
    std::string out, err;
    const serve::BatchResult b =
        serve::run_batch(paths, opt, registry, out, err);
    std::fwrite(out.data(), 1, out.size(), stdout);
    std::fwrite(err.data(), 1, err.size(), stderr);
    const serve::RegistryStats rs = registry.stats();
    std::fprintf(stderr,
                 "batch: %d jobs, %d warm, %d memoized (%ld cache hits, "
                 "%ld misses, %ld collisions)\n",
                 b.jobs, b.warm_jobs, b.cached_jobs, rs.hits, rs.misses,
                 rs.fingerprint_collisions);
    return b.exit_code;
  }

  std::string deck;
  if (!serve::read_file(path, deck)) {
    // Matches the historical parse_netlist_file failure line.
    std::fprintf(stderr, "error: cannot open netlist file: %s\n",
                 path.c_str());
    return 1;
  }
  const serve::DeckResult r = serve::run_deck(deck, opt, nullptr);
  std::fwrite(r.out.data(), 1, r.out.size(), stdout);
  std::fwrite(r.err.data(), 1, r.err.size(), stderr);
  return r.exit_code;
}
