#include "analysis/structural.h"

#include "analysis/range.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <queue>
#include <set>
#include <utility>

#include "circuit/device.h"
#include "numeric/sparse.h"

namespace msim::an {
namespace {

std::atomic<long> g_full_runs{0};

// The actual DC stamp pattern: per-equation unknown lists recorded by
// replaying every device's stamp() against a StampRecord at x = 0.
// Positions only -- no values are computed, no matrix exists.  Every
// in-tree device writes the same *positions* at any x (only the values
// are x-dependent), so recording at zero is exact, and the DC pattern
// is a subset of the transient/AC patterns (dynamic elements only add
// entries), which makes DC the conservative structural check.
struct RecordedPattern {
  int n = 0;
  int node_rows = 0;                      // rows < node_rows are KCL rows
  std::vector<std::vector<int>> adj;      // row -> sorted unique cols
  std::vector<std::vector<const ckt::Device*>> row_devs;
};

// `with_devices` also fills row_devs (only a singular verdict names
// devices, so the common path skips that storage).
RecordedPattern record_dc_pattern(const ckt::Netlist& nl, bool with_devices) {
  RecordedPattern p;
  p.n = nl.unknown_count();
  p.node_rows = nl.node_count() - 1;
  p.adj.assign(static_cast<std::size_t>(p.n), {});
  if (with_devices) p.row_devs.assign(static_cast<std::size_t>(p.n), {});

  const num::RealVector x0(static_cast<std::size_t>(p.n), 0.0);
  num::RealVector rhs(static_cast<std::size_t>(p.n), 0.0);
  ckt::StampRecord rec;
  for (const auto& d : nl.devices()) {
    rec.clear();
    ckt::StampContext ctx(ckt::AnalysisMode::kDcOp, x0, rec, rhs);
    ctx.gmin = 1e-12;
    d->stamp(ctx);
    for (const auto& [r, c] : rec.entries) {
      // Out-of-range writes are the contract checker's job.
      if (r < 0 || r >= p.n || c < 0 || c >= p.n) continue;
      // Repeats of a row's last column are dropped here (the sort below
      // drops the rest), and devices are recorded one at a time, so a
      // row's last device is its last-seen marker: O(1) dedupe, even on
      // a row shared by many parallel devices.
      auto& cols = p.adj[static_cast<std::size_t>(r)];
      if (cols.empty() || cols.back() != c) cols.push_back(c);
      if (!with_devices) continue;
      auto& devs = p.row_devs[static_cast<std::size_t>(r)];
      if (devs.empty() || devs.back() != d.get()) devs.push_back(d.get());
    }
  }
  // The assembler unconditionally adds the gshunt guard to every node
  // diagonal; mirror it so the structural verdict matches what the
  // numeric system can actually factor.  Node-level weaknesses hidden
  // by gshunt (floating nodes, cutsets) stay warnings in the
  // connectivity pass -- this pass proves *hard* singularity.
  for (int i = 0; i < p.node_rows; ++i)
    p.adj[static_cast<std::size_t>(i)].push_back(i);
  for (auto& row : p.adj) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  return p;
}

// Hopcroft-Karp maximum bipartite matching between equations (rows) and
// unknowns (cols).  O(E * sqrt(V)); the MNA graphs here have O(n)
// edges, so this is linear-ish and far below one numeric assembly.
struct Matching {
  std::vector<int> row_match;  // row -> col or -1
  std::vector<int> col_match;  // col -> row or -1
  int size = 0;
};

Matching max_matching(const RecordedPattern& p) {
  const int n = p.n;
  Matching m;
  m.row_match.assign(static_cast<std::size_t>(n), -1);
  m.col_match.assign(static_cast<std::size_t>(n), -1);

  constexpr int kInf = 1 << 30;
  std::vector<int> dist(static_cast<std::size_t>(n));
  std::queue<int> q;

  auto bfs = [&]() {
    bool reachable_free_col = false;
    for (int r = 0; r < n; ++r) {
      if (m.row_match[static_cast<std::size_t>(r)] < 0) {
        dist[static_cast<std::size_t>(r)] = 0;
        q.push(r);
      } else {
        dist[static_cast<std::size_t>(r)] = kInf;
      }
    }
    while (!q.empty()) {
      const int r = q.front();
      q.pop();
      for (const int c : p.adj[static_cast<std::size_t>(r)]) {
        const int nr = m.col_match[static_cast<std::size_t>(c)];
        if (nr < 0) {
          reachable_free_col = true;
        } else if (dist[static_cast<std::size_t>(nr)] == kInf) {
          dist[static_cast<std::size_t>(nr)] =
              dist[static_cast<std::size_t>(r)] + 1;
          q.push(nr);
        }
      }
    }
    return reachable_free_col;
  };

  std::function<bool(int)> dfs = [&](int r) {
    for (const int c : p.adj[static_cast<std::size_t>(r)]) {
      const int nr = m.col_match[static_cast<std::size_t>(c)];
      if (nr < 0 || (dist[static_cast<std::size_t>(nr)] ==
                         dist[static_cast<std::size_t>(r)] + 1 &&
                     dfs(nr))) {
        m.row_match[static_cast<std::size_t>(r)] = c;
        m.col_match[static_cast<std::size_t>(c)] = r;
        return true;
      }
    }
    dist[static_cast<std::size_t>(r)] = kInf;
    return false;
  };

  while (bfs())
    for (int r = 0; r < n; ++r)
      if (m.row_match[static_cast<std::size_t>(r)] < 0 && dfs(r))
        ++m.size;
  return m;
}

std::string eq_label(const ckt::Netlist& nl, const RecordedPattern& p,
                     int row) {
  if (row < p.node_rows) return "kcl(" + nl.node_name(row + 1) + ")";
  return "branch(" + unknown_label(nl, row) + ")";
}

template <typename T>
void push_limited(std::vector<T>& v, const T& x, std::size_t cap = 8) {
  if (std::find(v.begin(), v.end(), x) == v.end() && v.size() < cap)
    v.push_back(x);
}

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (const auto& s : v) {
    if (!out.empty()) out += ", ";
    out += s;
  }
  return out;
}

}  // namespace

StructuralReport analyze_structure(const ckt::Netlist& nl) {
  StructuralReport rep;
  if (!nl.unknowns_assigned()) return rep;

  RecordedPattern p = record_dc_pattern(nl, false);
  const Matching m = max_matching(p);
  rep.unknowns = p.n;
  rep.structural_rank = m.size;
  if (!rep.singular()) return rep;
  p = record_dc_pattern(nl, true);  // the same pattern, plus row_devs

  // Dulmage-Mendelsohn style naming: from each unmatched equation, the
  // rows reachable by alternating paths (row -> any adjacent col ->
  // that col's matched row) form one over-determined block; its column
  // set is what those equations fight over.  Components sharing rows
  // merge into one deficiency.
  std::vector<char> row_seen(static_cast<std::size_t>(p.n), 0);
  std::vector<char> col_seen(static_cast<std::size_t>(p.n), 0);
  for (int r0 = 0; r0 < p.n; ++r0) {
    if (m.row_match[static_cast<std::size_t>(r0)] >= 0 ||
        row_seen[static_cast<std::size_t>(r0)])
      continue;
    StructuralDeficiency d;
    std::vector<int> rows, cols;
    std::queue<int> q;
    q.push(r0);
    row_seen[static_cast<std::size_t>(r0)] = 1;
    while (!q.empty()) {
      const int r = q.front();
      q.pop();
      rows.push_back(r);
      for (const int c : p.adj[static_cast<std::size_t>(r)]) {
        if (col_seen[static_cast<std::size_t>(c)]) continue;
        col_seen[static_cast<std::size_t>(c)] = 1;
        cols.push_back(c);
        const int nr = m.col_match[static_cast<std::size_t>(c)];
        if (nr >= 0 && !row_seen[static_cast<std::size_t>(nr)]) {
          row_seen[static_cast<std::size_t>(nr)] = 1;
          q.push(nr);
        }
      }
    }
    std::sort(rows.begin(), rows.end());
    std::sort(cols.begin(), cols.end());

    for (const int r : rows) {
      push_limited(d.equations, eq_label(nl, p, r));
      for (const ckt::Device* dev :
           p.row_devs[static_cast<std::size_t>(r)])
        push_limited(d.devices, dev->name());
      if (r < p.node_rows && d.node.empty()) d.node = nl.node_name(r + 1);
    }
    for (const int c : cols) {
      push_limited(d.unknowns, unknown_label(nl, c));
      if (c < p.node_rows && d.node.empty()) d.node = nl.node_name(c + 1);
    }
    // Prefer a branch-equation owner as the representative device: for
    // a V-loop that is the source closing the loop, which is the card
    // the user must fix.
    for (auto it = rows.rbegin(); it != rows.rend() && d.device.empty();
         ++it)
      if (*it >= p.node_rows &&
          !p.row_devs[static_cast<std::size_t>(*it)].empty())
        d.device = p.row_devs[static_cast<std::size_t>(*it)][0]->name();
    if (d.device.empty() && !d.devices.empty()) d.device = d.devices[0];

    d.message = "structurally singular block: " +
                std::to_string(rows.size()) + " equations {" +
                join(d.equations) + "} constrain only " +
                std::to_string(cols.size()) + " unknowns {" +
                join(d.unknowns) + "} (devices: " + join(d.devices) + ")";
    rep.deficiencies.push_back(std::move(d));
  }
  return rep;
}

std::vector<StampContractViolation> check_stamp_contracts(
    const ckt::Netlist& nl) {
  std::vector<StampContractViolation> out;
  if (!nl.unknowns_assigned()) return out;
  const int n = nl.unknown_count();

  const num::RealVector x0(static_cast<std::size_t>(n), 0.0);
  num::RealVector rhs(static_cast<std::size_t>(n), 0.0);
  num::ComplexVector crhs(static_cast<std::size_t>(n));

  auto label = [&](int idx) {
    return idx >= 0 && idx < n ? unknown_label(nl, idx)
                               : std::string("<out of range>");
  };

  for (const auto& d : nl.devices()) {
    num::SparsityPattern declared(n);
    d->declare_stamps(declared);
    std::set<std::pair<int, int>> allowed(declared.entries().begin(),
                                          declared.entries().end());

    ckt::StampRecord rec;
    auto diff = [&](const char* context) {
      std::set<std::pair<int, int>> seen;
      for (const auto& e : rec.entries) {
        if (allowed.count(e) || !seen.insert(e).second) continue;
        StampContractViolation v;
        v.device = d->name();
        v.context = context;
        v.row = e.first;
        v.col = e.second;
        v.row_label = label(e.first);
        v.col_label = label(e.second);
        v.message = "device '" + d->name() + "' (" +
                    std::string(d->type()) + ") stamped (" + v.row_label +
                    ", " + v.col_label +
                    ") outside its declared pattern during " + context +
                    " stamping";
        out.push_back(std::move(v));
      }
      rec.clear();
    };

    {
      ckt::StampContext ctx(ckt::AnalysisMode::kDcOp, x0, rec, rhs);
      ctx.gmin = 1e-12;
      d->stamp(ctx);
      diff("dc");
    }
    {
      ckt::StampContext ctx(ckt::AnalysisMode::kTransient, x0, rec, rhs);
      ctx.gmin = 1e-12;
      ctx.dt = 1e-9;
      d->stamp(ctx);
      diff("tran");
    }
    {
      ckt::AcStampContext ctx(rec, crhs);
      d->stamp_ac(ctx);
      diff("ac");
    }
  }
  return out;
}

void register_analysis_lint_passes() {
  static std::once_flag once;
  std::call_once(once, [] {
    ckt::LintPass rank;
    rank.name = "structural_rank";
    rank.description =
        "maximum-matching structural rank of the recorded DC stamp "
        "pattern; deficiency proves the MNA matrix singular for every "
        "numeric value";
    rank.default_enabled = true;
    rank.run = [](const ckt::Netlist& nl,
                  std::vector<ckt::LintIssue>& out) {
      const StructuralReport rep = analyze_structure(nl);
      for (const auto& d : rep.deficiencies)
        out.push_back({ckt::LintKind::kStructuralSingular,
                       ckt::LintSeverity::kError, d.node, d.device,
                       d.message, 0, ""});
    };
    ckt::LintRegistry::instance().add(std::move(rank));

    ckt::LintPass contract;
    contract.name = "stamp_contract";
    contract.description =
        "replay every device's stamps against declare_stamps(); "
        "out-of-pattern writes corrupt the shared sparse skeleton";
    // The replay costs one full (position-only) assembly per lint run:
    // free in debug sessions, opt-in per run elsewhere.
#ifdef NDEBUG
    contract.default_enabled = false;
#else
    contract.default_enabled = true;
#endif
    contract.run = [](const ckt::Netlist& nl,
                      std::vector<ckt::LintIssue>& out) {
      for (const auto& v : check_stamp_contracts(nl)) {
        const ckt::Device* dev = nl.find(v.device);
        out.push_back({ckt::LintKind::kStampContract,
                       ckt::LintSeverity::kError, "", v.device, v.message,
                       dev ? dev->source_line() : 0, ""});
      }
    };
    ckt::LintRegistry::instance().add(std::move(contract));

    // The value-range pass ("value_range": rail / dead-device /
    // conditioning rules) lives in analysis/range.cc; registering it
    // here makes every preflight arm it alongside the structural passes.
    register_range_lint_passes();
  });
}

SolveDiag preflight(ckt::Netlist& nl, const PreflightOptions& opt) {
  register_analysis_lint_passes();
  if (!nl.devices().empty()) nl.assign_unknowns();

  if (opt.use_cache) {
    const auto& verdict = nl.structural_verdict();
    if (verdict.valid && verdict.clean &&
        verdict.fingerprint == nl.topology_fingerprint())
      return SolveDiag::success();
  }

  g_full_runs.fetch_add(1, std::memory_order_relaxed);
  ckt::LintOptions lint_opt;
  lint_opt.disable = opt.disable;
  lint_opt.enable = opt.enable;
  const auto issues = ckt::lint(nl, lint_opt);
  if (opt.use_cache && issues.empty()) record_clean_verdict(nl);

  const bool fatal = ckt::lint_has_errors(issues) ||
                     (opt.strict && !issues.empty());
  if (!fatal) return SolveDiag::success();

  SolveDiag diag;
  const auto& first = issues.front();
  diag.status = SolveStatus::kBadTopology;
  diag.stage = "lint";
  if (!first.node.empty()) diag.unknown = "v(" + first.node + ")";
  diag.device = first.device;
  diag.detail = ckt::lint_report(issues);
  return diag;
}

void record_clean_verdict(const ckt::Netlist& nl) {
  nl.structural_verdict() = {nl.topology_fingerprint(), true, true};
}

long preflight_full_runs() {
  return g_full_runs.load(std::memory_order_relaxed);
}

}  // namespace msim::an
