#include "circuit/lint.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <numeric>
#include <sstream>
#include <utility>

namespace msim::ckt {
namespace {

// Minimal union-find over dense node ids.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(static_cast<std::size_t>(n)) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int find(int a) {
    while (parent_[a] != a) {
      parent_[a] = parent_[parent_[a]];
      a = parent_[a];
    }
    return a;
  }
  // Returns false when a and b were already connected.
  bool unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[b] = a;
    return true;
  }

 private:
  std::vector<int> parent_;
};

// Node pairs a device connects with a DC conduction path.  Gate and
// pure current-source terminals are deliberately excluded: they carry
// no DC conductance between their own nodes.
std::vector<std::pair<NodeId, NodeId>> conduction_edges(const Device& d) {
  const auto& n = d.nodes();
  const std::string_view t = d.type();
  if (t == "resistor" || t == "vsource" || t == "inductor" ||
      t == "switch" || t == "diode")
    return {{n[0], n[1]}};
  if (t == "vcvs" || t == "ccvs") return {{n[0], n[1]}};
  if (t == "bjt")  // c b e: all junction-coupled
    return {{n[0], n[1]}, {n[1], n[2]}};
  if (t == "mosfet")  // d g s b: channel d-s plus bulk junctions
    return {{n[0], n[2]}, {n[3], n[0]}, {n[3], n[2]}};
  return {};
}

// True for branches that pin an exact voltage between their terminals;
// a cycle of these is structurally singular in DC.
bool is_hard_voltage_branch(const Device& d) {
  const std::string_view t = d.type();
  return t == "vsource" || t == "inductor";
}

void pass_no_devices(const Netlist& nl, std::vector<LintIssue>& out) {
  if (nl.devices().empty())
    out.push_back({LintKind::kNoDevices, LintSeverity::kError, "", "",
                   "netlist contains no devices", 0, ""});
}

void pass_duplicate_names(const Netlist& nl, std::vector<LintIssue>& out) {
  std::map<std::string, std::vector<const Device*>> by_name;
  for (const auto& d : nl.devices()) by_name[d->name()].push_back(d.get());
  for (const auto& [name, devs] : by_name) {
    if (devs.size() < 2) continue;
    std::string msg = "device name '" + name + "' used " +
                      std::to_string(devs.size()) + " times";
    std::string lines;
    for (const Device* d : devs) {
      if (d->source_line() <= 0) continue;
      if (!lines.empty()) lines += ", ";
      lines += std::to_string(d->source_line());
    }
    if (!lines.empty()) msg += " (lines " + lines + ")";
    // Point at the first *re*definition: that is the card to fix.
    out.push_back({LintKind::kDuplicateName, LintSeverity::kError, "",
                   name, std::move(msg), devs[1]->source_line(), ""});
  }
}

void pass_voltage_loop(const Netlist& nl, std::vector<LintIssue>& out) {
  UnionFind hard(nl.node_count());
  for (const auto& d : nl.devices()) {
    if (!is_hard_voltage_branch(*d)) continue;
    const auto& n = d->nodes();
    if (n[0] == n[1] || !hard.unite(n[0], n[1]))
      out.push_back({LintKind::kVoltageLoop, LintSeverity::kError,
                     nl.node_name(n[0]), d->name(),
                     "voltage branch '" + d->name() +
                         "' closes a loop of ideal voltage sources",
                     d->source_line(), ""});
  }
}

void pass_connectivity(const Netlist& nl, std::vector<LintIssue>& out) {
  if (nl.devices().empty()) return;

  // Terminal reference counts and the DC conduction graph.
  std::vector<int> refs(static_cast<std::size_t>(nl.node_count()), 0);
  std::vector<const Device*> first_dev(
      static_cast<std::size_t>(nl.node_count()), nullptr);
  UnionFind cond(nl.node_count());
  for (const auto& d : nl.devices()) {
    for (const NodeId n : d->nodes()) {
      ++refs[static_cast<std::size_t>(n)];
      if (!first_dev[static_cast<std::size_t>(n)])
        first_dev[static_cast<std::size_t>(n)] = d.get();
    }
    for (const auto& [a, b] : conduction_edges(*d)) cond.unite(a, b);
  }

  const int ground_root = cond.find(kGround);
  for (NodeId n = 1; n < nl.node_count(); ++n) {
    const auto& name = nl.node_name(n);
    const Device* fd = first_dev[static_cast<std::size_t>(n)];
    if (refs[static_cast<std::size_t>(n)] == 1)
      out.push_back({LintKind::kDanglingTerminal, LintSeverity::kWarning,
                     name, fd ? fd->name() : "",
                     "node '" + name +
                         "' is referenced by a single terminal (" +
                         (fd ? fd->name() : "?") + ")",
                     fd ? fd->source_line() : 0, ""});
    if (cond.find(n) != ground_root)
      out.push_back({LintKind::kFloatingNode, LintSeverity::kWarning,
                     name, fd ? fd->name() : "",
                     "node '" + name +
                         "' has no DC conduction path to ground",
                     fd ? fd->source_line() : 0, ""});
  }

  // Current-source cutsets: a conduction island reachable only through
  // current sources.  The DC current balance of such an island is fixed
  // by the sources alone, so its voltages rest on the gshunt guard and
  // any source mismatch drives them off to the rails.  One warning per
  // island, naming the first current source feeding it.
  std::vector<char> reported(static_cast<std::size_t>(nl.node_count()), 0);
  for (const auto& d : nl.devices()) {
    if (d->type() != "isource") continue;
    for (const NodeId n : d->nodes()) {
      if (n == kGround) continue;
      const int root = cond.find(n);
      if (root == ground_root || reported[static_cast<std::size_t>(root)])
        continue;
      reported[static_cast<std::size_t>(root)] = 1;
      out.push_back(
          {LintKind::kCurrentCutset, LintSeverity::kWarning,
           nl.node_name(n), d->name(),
           "node '" + nl.node_name(n) +
               "' is fed only through current sources ('" + d->name() +
               "'): its DC level is set by the gshunt guard",
           d->source_line(), ""});
    }
  }
}

// A NaN or Inf parameter value (a "nan" token in a SPICE card, a bad
// expression upstream) stamps straight into the MNA matrix and either
// poisons the factorization or, worse, silently produces a garbage
// solution.  Reject it here with the parser's source line while the
// value is still attributable to a device parameter.
void pass_finite_params(const Netlist& nl, std::vector<LintIssue>& out) {
  for (const auto& d : nl.devices()) {
    for (const auto& [param, value] : d->param_values()) {
      if (std::isfinite(value)) continue;
      std::ostringstream os;
      os << "device '" << d->name() << "' parameter '" << param
         << "' is " << value;
      out.push_back({LintKind::kNonFiniteParam, LintSeverity::kError, "",
                     d->name(), os.str(), d->source_line(), ""});
    }
  }
}

}  // namespace

struct LintRegistry::Impl {
  mutable std::mutex mu;
  std::vector<LintPass> passes;
};

LintRegistry::LintRegistry() : impl_(new Impl) {
  impl_->passes.push_back({"no_devices", "reject empty netlists", true,
                           pass_no_devices});
  impl_->passes.push_back({"duplicate_names",
                           "device names must be unique (the name index "
                           "silently shadows duplicates)",
                           true, pass_duplicate_names});
  impl_->passes.push_back({"voltage_loop",
                           "loops of ideal voltage branches are "
                           "structurally singular",
                           true, pass_voltage_loop});
  impl_->passes.push_back({"connectivity",
                           "floating nodes, current-source cutsets and "
                           "dangling terminals",
                           true, pass_connectivity});
  impl_->passes.push_back({"finite_params",
                           "device parameter values must be finite "
                           "(no NaN / Inf)",
                           true, pass_finite_params,
                           /*value_dependent=*/true});
}

LintRegistry::~LintRegistry() { delete impl_; }

LintRegistry& LintRegistry::instance() {
  static LintRegistry reg;
  return reg;
}

void LintRegistry::add(LintPass pass) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& p : impl_->passes) {
    if (p.name == pass.name) {
      p = std::move(pass);
      return;
    }
  }
  impl_->passes.push_back(std::move(pass));
}

std::vector<LintPass> LintRegistry::passes() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->passes;
}

const char* to_string(LintKind k) {
  switch (k) {
    case LintKind::kDuplicateName: return "duplicate_name";
    case LintKind::kVoltageLoop: return "voltage_loop";
    case LintKind::kFloatingNode: return "floating_node";
    case LintKind::kDanglingTerminal: return "dangling_terminal";
    case LintKind::kNoDevices: return "no_devices";
    case LintKind::kCurrentCutset: return "current_cutset";
    case LintKind::kStructuralSingular: return "structural_singular";
    case LintKind::kStampContract: return "stamp_contract";
    case LintKind::kNonFiniteParam: return "non_finite_param";
    case LintKind::kRailViolation: return "rail_violation";
    case LintKind::kDeadDevice: return "dead_device";
    case LintKind::kConditioning: return "conditioning_forecast";
  }
  return "unknown";
}

const char* to_string(LintSeverity s) {
  return s == LintSeverity::kError ? "error" : "warning";
}

std::vector<LintIssue> lint(const Netlist& nl, const LintOptions& opt,
                            const std::vector<LintPass>& overrides) {
  auto named = [](const std::vector<std::string>& v, const std::string& n) {
    return std::find(v.begin(), v.end(), n) != v.end();
  };
  std::vector<LintIssue> all;
  for (const auto& registered : LintRegistry::instance().passes()) {
    const auto over = std::find_if(
        overrides.begin(), overrides.end(),
        [&](const LintPass& o) { return o.name == registered.name; });
    const LintPass& p = over == overrides.end() ? registered : *over;
    if (opt.value_dependent_only && !p.value_dependent) continue;
    if (named(opt.disable, p.name)) continue;
    if (!p.default_enabled && !named(opt.enable, p.name)) continue;
    std::vector<LintIssue> found;
    p.run(nl, found);
    for (auto& i : found) {
      // Disable entries match pass names above, but also individual
      // issue kinds: one pass can emit several rule kinds (connectivity
      // emits floating_node, dangling_terminal and current_cutset), and
      // users reasonably disable by the rule name a report showed them.
      if (named(opt.disable, to_string(i.kind))) continue;
      if (i.pass.empty()) i.pass = p.name;
      all.push_back(std::move(i));
    }
  }
  std::stable_partition(all.begin(), all.end(), [](const LintIssue& i) {
    return i.severity == LintSeverity::kError;
  });
  return all;
}

bool lint_has_errors(const std::vector<LintIssue>& issues) {
  return std::any_of(issues.begin(), issues.end(), [](const LintIssue& i) {
    return i.severity == LintSeverity::kError;
  });
}

std::string lint_report(const std::vector<LintIssue>& issues) {
  std::string out;
  for (const auto& i : issues) {
    out += i.severity == LintSeverity::kError ? "error: " : "warning: ";
    out += to_string(i.kind);
    out += ": ";
    out += i.message;
    if (i.line > 0) out += " [line " + std::to_string(i.line) + "]";
    out += '\n';
  }
  return out;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string lint_json(const std::vector<LintIssue>& issues) {
  int errors = 0, warnings = 0;
  std::string out = "{\"issues\":[";
  bool first = true;
  for (const auto& i : issues) {
    (i.severity == LintSeverity::kError ? errors : warnings) += 1;
    if (!first) out += ',';
    first = false;
    out += "{\"pass\":\"" + json_escape(i.pass) + "\"";
    out += ",\"kind\":\"";
    out += to_string(i.kind);
    out += "\",\"severity\":\"";
    out += to_string(i.severity);
    out += "\",\"node\":\"" + json_escape(i.node) + "\"";
    out += ",\"device\":\"" + json_escape(i.device) + "\"";
    out += ",\"line\":" + std::to_string(i.line);
    out += ",\"message\":\"" + json_escape(i.message) + "\"}";
  }
  out += "],\"errors\":" + std::to_string(errors) +
         ",\"warnings\":" + std::to_string(warnings) + "}";
  return out;
}

}  // namespace msim::ckt
