#include "analysis/range.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "analysis/diag.h"
#include "analysis/mna.h"
#include "circuit/device.h"
#include "circuit/lint.h"
#include "circuit/range.h"
#include "core/json_escape.h"
#include "core/text_writer.h"

namespace msim::an {
namespace {

bool is_supply_name(const std::string& name) {
  std::string s;
  s.reserve(name.size());
  for (char c : name)
    s += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  for (const char* p : {"vdd", "vcc", "vss", "vee", "vsup"})
    if (s.rfind(p, 0) == 0) return true;
  return false;
}

// The hull-rule graph, built once from the structure recorded on the
// first sweep.  A node is eligible exactly when EVERY device touching
// it declared either a conductive branch or a zero-DC-current terminal
// there -- the premise of the resistive-network maximum principle.  A
// single undeclared (injecting) terminal disqualifies the node.
struct HullGraph {
  std::vector<char> eligible;                  // by NodeId
  std::vector<std::vector<ckt::NodeId>> nbrs;  // declared-edge neighbours
};

HullGraph build_hull_graph(const ckt::Netlist& nl,
                           const ckt::RangeContext& ctx) {
  const std::size_t nc = static_cast<std::size_t>(nl.node_count());
  HullGraph g;
  g.eligible.assign(nc, 1);
  g.nbrs.assign(nc, {});
  g.eligible[ckt::kGround] = 0;

  std::vector<std::pair<const ckt::Device*, ckt::NodeId>> declared;
  for (const auto& e : ctx.edges()) {
    declared.emplace_back(e.dev, e.p);
    declared.emplace_back(e.dev, e.n);
    if (e.p != ckt::kGround)
      g.nbrs[static_cast<std::size_t>(e.p)].push_back(e.n);
    if (e.n != ckt::kGround)
      g.nbrs[static_cast<std::size_t>(e.n)].push_back(e.p);
  }
  for (const auto& z : ctx.no_current()) declared.emplace_back(z.dev, z.node);
  std::sort(declared.begin(), declared.end());

  for (const auto& d : nl.devices())
    for (ckt::NodeId n : d->nodes())
      if (n != ckt::kGround &&
          !std::binary_search(declared.begin(), declared.end(),
                              std::make_pair(
                                  static_cast<const ckt::Device*>(d.get()),
                                  n)))
        g.eligible[static_cast<std::size_t>(n)] = 0;
  return g;
}

// Maximum principle: an eligible node's voltage is confined to the hull
// of its declared neighbours and ground (the assembler's gshunt tie
// means an isolated-but-eligible node rests at 0).
void apply_hull(const HullGraph& g, ckt::RangeContext& ctx) {
  for (std::size_t n = 1; n < g.eligible.size(); ++n) {
    if (!g.eligible[n]) continue;
    num::Interval b = num::Interval::point(0.0);
    for (ckt::NodeId m : g.nbrs[n]) b = num::hull(b, ctx.v(m));
    ctx.meet_v(static_cast<ckt::NodeId>(n), b);
  }
}

// range_json's writer: numbers as "%.6g" (JSON has no inf or nan, so
// non-finite ones are written as null, as serve::Json::dump does; the
// text report keeps inf/nan) and strings quoted and escaped.
class JsonText : public core::BasicTextWriter<JsonText> {
 public:
  JsonText& jnum(double v) { return std::isfinite(v) ? num(v) : add("null"); }
  JsonText& quoted(std::string_view t) {
    s_ += '"';
    core::append_json_escaped(s_, t);
    s_ += '"';
    return *this;
  }
};

}  // namespace

RangeReport range_analysis(const ckt::Netlist& nl, const RangeOptions& opt) {
  RangeReport rep;
  if (!nl.unknowns_assigned()) return rep;
  const int n = nl.unknown_count();
  const int node_rows = nl.node_count() - 1;
  rep.unknowns = n;

  ckt::RangeContext ctx(node_rows, n);
  ctx.temp_k = opt.temp_k;

  // Monotone fixed-point sweep with a truncation widening: meets only
  // shrink intervals, so stopping at the cap leaves a sound (merely
  // looser) over-approximation.
  HullGraph g;
  for (int sweep = 0; sweep < std::max(1, opt.max_sweeps); ++sweep) {
    ctx.begin_sweep(/*record_structure=*/sweep == 0);
    for (const auto& d : nl.devices()) d->range_eval(ctx);
    if (sweep == 0) g = build_hull_graph(nl, ctx);
    apply_hull(g, ctx);
    ++rep.sweeps;
    if (!ctx.changed()) {
      rep.converged = true;
      break;
    }
  }
  ctx.begin_verdict_pass();
  for (const auto& d : nl.devices()) d->range_eval(ctx);

  rep.bounds = ctx.intervals();

  // Supply hull: every bounded supply-named (or overridden) node plus
  // ground.  Without one bounded supply node no rail or headroom claim
  // is made at all -- silence is the sound default.
  auto is_supply = [&](const std::string& name) {
    if (!opt.supply_nodes.empty())
      return std::find(opt.supply_nodes.begin(), opt.supply_nodes.end(),
                       name) != opt.supply_nodes.end();
    return is_supply_name(name);
  };
  num::Interval hull_iv = num::Interval::point(0.0);
  for (int node = 1; node <= node_rows; ++node) {
    const std::string& nm = nl.node_name(node);
    if (!is_supply(nm)) continue;
    const num::Interval iv = rep.bounds[static_cast<std::size_t>(node - 1)];
    if (!iv.bounded()) continue;
    hull_iv = num::hull(hull_iv, iv);
    rep.supply_names.push_back(nm);
    rep.supply_bounded = true;
  }
  rep.supply_hull = hull_iv;

  if (rep.supply_bounded) {
    // Strict outside-ness with an epsilon: probe sources pin nodes
    // exactly onto a rail, and a bound merely touching the rail is
    // normal operation, never a violation.
    const double eps = 1e-9 * std::max(1.0, rep.supply_hull.mag());
    const double lo_rail = rep.supply_hull.lo - opt.rail_margin - eps;
    const double hi_rail = rep.supply_hull.hi + opt.rail_margin + eps;
    for (int node = 1; node <= node_rows; ++node) {
      const num::Interval iv = rep.bounds[static_cast<std::size_t>(node - 1)];
      const bool above = iv.lo > hi_rail;
      const bool below = iv.hi < lo_rail;
      if (!above && !below) continue;
      RangeRailViolation v;
      v.node = nl.node_name(node);
      v.bound = iv;
      v.device = device_touching_unknown(nl, node - 1);
      v.message = core::TextWriter()
                      .add("node '").add(v.node)
                      .add("' is provably confined to [").num(iv.lo, 4)
                      .add(", ").num(iv.hi, 4).add("] V, entirely ")
                      .add(above ? "above" : "below")
                      .add(" the supply range [")
                      .num(rep.supply_hull.lo - opt.rail_margin, 4).add(", ")
                      .num(rep.supply_hull.hi + opt.rail_margin, 4)
                      .add("] V")
                      .take();
      rep.rail_violations.push_back(std::move(v));
    }
    for (int node = 1; node <= node_rows; ++node) {
      const num::Interval iv = rep.bounds[static_cast<std::size_t>(node - 1)];
      if (!iv.bounded()) continue;
      RangeNodeBound nb;
      nb.node = nl.node_name(node);
      nb.bound = iv;
      nb.headroom = std::min(iv.lo - rep.supply_hull.lo,
                             rep.supply_hull.hi - iv.hi);
      rep.headroom.push_back(std::move(nb));
    }
    std::stable_sort(rep.headroom.begin(), rep.headroom.end(),
                     [](const RangeNodeBound& a, const RangeNodeBound& b) {
                       return a.headroom < b.headroom;
                     });
  }

  for (const auto& d : ctx.dead())
    rep.dead_devices.push_back({d.dev->name(), std::string(d.dev->type()),
                                d.reason, d.dev->source_line()});
  for (const auto& c : ctx.currents())
    rep.currents.push_back({c.dev->name(), c.amps});

  if (opt.with_conditioning) {
    // One O(nnz) assembly at the bound midpoints (a feasible-ish point;
    // mid() is finite even for top intervals) into the netlist's shared
    // CSR skeleton.  Each row's magnitude is scaled by its columns'
    // voltage spans, and the max/min spread over rows forecasts the
    // condition of the factorization the solver is about to attempt.
    num::RealVector x(static_cast<std::size_t>(n), 0.0);
    for (int i = 0; i < n; ++i)
      x[static_cast<std::size_t>(i)] =
          rep.bounds[static_cast<std::size_t>(i)].mid();
    num::RealSparseMatrix jac;
    num::RealVector rhs;
    AssembleParams p;
    p.temp_k = opt.temp_k;
    try {
      jac = mna_skeleton(nl);
      assemble_real(nl, x, p, jac, rhs);
    } catch (const std::logic_error&) {
      // A device wrote outside its declared stamp pattern (the
      // stamp_contract lint names it): no forecast for this netlist.
      return rep;
    }

    double vmax = 1.0;
    for (const auto& iv : rep.bounds)
      if (iv.bounded()) vmax = std::max(vmax, iv.mag());
    if (rep.supply_bounded) vmax = std::max(vmax, rep.supply_hull.mag());
    const double vfloor = 1e-6 * vmax;
    std::vector<double> vscale(static_cast<std::size_t>(n), 1.0);
    for (int i = 0; i < n; ++i) {
      const num::Interval iv = rep.bounds[static_cast<std::size_t>(i)];
      if (iv.bounded())
        vscale[static_cast<std::size_t>(i)] = std::max(iv.mag(), vfloor);
      else if (i < node_rows && rep.supply_bounded)
        vscale[static_cast<std::size_t>(i)] =
            std::max(rep.supply_hull.mag(), vfloor);
      else
        vscale[static_cast<std::size_t>(i)] = std::max(1.0, vfloor);
    }
    // Entries at or below the guard-conductance scale (gshunt, gmin,
    // off-switch leakage) are excluded: rows held up only by guards are
    // deliberately regularized, not ill-conditioned circuit equations.
    const double guard = 10.0 * p.gshunt;
    double rmax = 0.0;
    double rmin = std::numeric_limits<double>::infinity();
    const std::vector<int>& row_ptr = jac.row_ptr();
    const std::vector<int>& cols = jac.cols();
    const std::vector<double>& vals = jac.values();
    for (int r = 0; r < n; ++r) {
      double m = 0.0;
      for (int k = row_ptr[static_cast<std::size_t>(r)];
           k < row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
        const double a = std::abs(vals[static_cast<std::size_t>(k)]);
        if (a <= guard) continue;
        m = std::max(
            m, a * vscale[static_cast<std::size_t>(
                       cols[static_cast<std::size_t>(k)])]);
      }
      if (m == 0.0) continue;
      rmax = std::max(rmax, m);
      rmin = std::min(rmin, m);
    }
    if (rmax > 0.0 && std::isfinite(rmin) && rmin > 0.0) {
      rep.cond_available = true;
      rep.cond_forecast = rmax / rmin;
    }
  }
  return rep;
}

std::string range_json(const RangeReport& r) {
  const auto flag = [](bool b) { return b ? "true" : "false"; };
  JsonText out;
  out.add("{\"unknowns\":").integer(r.unknowns).add(",\"sweeps\":")
      .integer(r.sweeps).add(",\"converged\":").add(flag(r.converged))
      .add(",\"supply\":{\"bounded\":").add(flag(r.supply_bounded))
      .add(",\"lo\":").jnum(r.supply_hull.lo).add(",\"hi\":")
      .jnum(r.supply_hull.hi).add(",\"nodes\":[");
  for (std::size_t i = 0; i < r.supply_names.size(); ++i) {
    if (i) out.add(',');
    out.quoted(r.supply_names[i]);
  }
  out.add("]},\"headroom\":[");
  for (std::size_t i = 0; i < r.headroom.size(); ++i) {
    const auto& h = r.headroom[i];
    if (i) out.add(',');
    out.add("{\"node\":").quoted(h.node).add(",\"lo\":").jnum(h.bound.lo)
        .add(",\"hi\":").jnum(h.bound.hi).add(",\"headroom\":")
        .jnum(h.headroom).add('}');
  }
  out.add("],\"rail_violations\":[");
  for (std::size_t i = 0; i < r.rail_violations.size(); ++i) {
    const auto& v = r.rail_violations[i];
    if (i) out.add(',');
    out.add("{\"node\":").quoted(v.node).add(",\"lo\":").jnum(v.bound.lo)
        .add(",\"hi\":").jnum(v.bound.hi).add(",\"device\":")
        .quoted(v.device).add(",\"message\":").quoted(v.message).add('}');
  }
  out.add("],\"dead_devices\":[");
  for (std::size_t i = 0; i < r.dead_devices.size(); ++i) {
    const auto& d = r.dead_devices[i];
    if (i) out.add(',');
    out.add("{\"device\":").quoted(d.device).add(",\"type\":")
        .quoted(d.type).add(",\"reason\":").quoted(d.reason)
        .add(",\"line\":").integer(d.line).add('}');
  }
  out.add("],\"currents\":[");
  std::size_t emitted = 0;
  for (const auto& c : r.currents) {
    if (!c.amps.bounded()) continue;
    if (emitted++) out.add(',');
    out.add("{\"device\":").quoted(c.device).add(",\"lo\":").jnum(c.amps.lo)
        .add(",\"hi\":").jnum(c.amps.hi).add('}');
  }
  out.add("],\"conditioning\":{\"available\":").add(flag(r.cond_available))
      .add(",\"forecast\":").jnum(r.cond_forecast).add("}}");
  return out.take();
}

std::string range_text(const RangeReport& r) {
  core::TextWriter out;
  out.add("value-range: ").integer(r.unknowns).add(" unknowns, ")
      .integer(r.sweeps).add(" sweeps")
      .add(r.converged ? "" : " (sweep cap)").add('\n');
  if (r.supply_bounded) {
    out.add("  supply hull [").num(r.supply_hull.lo).add(", ")
        .num(r.supply_hull.hi).add("] V");
    if (!r.supply_names.empty()) {
      out.add(" (");
      for (std::size_t i = 0; i < r.supply_names.size(); ++i) {
        if (i) out.add(", ");
        out.add(r.supply_names[i]);
      }
      out.add(')');
    }
    out.add('\n');
    const std::size_t show = std::min<std::size_t>(r.headroom.size(), 4);
    for (std::size_t i = 0; i < show; ++i) {
      const auto& h = r.headroom[i];
      out.add("  headroom ").num(h.headroom).add(" V: ").add(h.node)
          .add(" in [").num(h.bound.lo).add(", ").num(h.bound.hi)
          .add("] V\n");
    }
  } else {
    out.add("  no bounded supply node; rail/headroom checks skipped\n");
  }
  for (const auto& v : r.rail_violations)
    out.add("  RAIL VIOLATION: ").add(v.message).add('\n');
  for (const auto& d : r.dead_devices)
    out.add("  dead device '").add(d.device).add("' (").add(d.type)
        .add("): ").add(d.reason).add('\n');
  if (r.cond_available)
    out.add("  conditioning forecast ").num(r.cond_forecast).add('\n');
  return out.take();
}

ckt::LintPass range_lint_pass(const RangeReport* report) {
  // One pass, three issue kinds: the interval fixed point is shared, so
  // a lint run pays range_analysis at most once, and users mute
  // individual rules by kind ("rail_violation", "dead_device",
  // "conditioning_forecast") like the connectivity pass's rules.
  ckt::LintPass pass;
  pass.name = "value_range";
  pass.description =
      "interval value-range analysis: node voltages provably confined "
      "outside the supply rails (across every switch code), devices "
      "that provably never conduct, and an interval-scaled row-spread "
      "conditioning forecast";
  pass.default_enabled = true;
  pass.value_dependent = true;  // interval bounds move with every value
  pass.run = [report](const ckt::Netlist& nl,
                      std::vector<ckt::LintIssue>& out) {
    const RangeOptions opt;
    const RangeReport own = report ? RangeReport{} : range_analysis(nl, opt);
    const RangeReport& rep = report ? *report : own;
    for (const auto& v : rep.rail_violations) {
      const ckt::Device* dev = nl.find(v.device);
      out.push_back({ckt::LintKind::kRailViolation, ckt::LintSeverity::kError,
                     v.node, v.device, v.message,
                     dev ? dev->source_line() : 0, ""});
    }
    for (const auto& d : rep.dead_devices)
      out.push_back({ckt::LintKind::kDeadDevice, ckt::LintSeverity::kWarning,
                     "", d.device,
                     "device '" + d.device + "' (" + d.type +
                         ") is provably off: " + d.reason,
                     d.line, ""});
    if (rep.cond_available && rep.cond_forecast >= opt.cond_threshold) {
      out.push_back(
          {ckt::LintKind::kConditioning, ckt::LintSeverity::kWarning, "", "",
           core::TextWriter()
               .add("interval-scaled row magnitudes spread over ")
               .num(rep.cond_forecast, 3).add(" (threshold ")
               .num(opt.cond_threshold, 3)
               .add("): the MNA factorization is likely ill-conditioned at "
                    "any feasible operating point")
               .take(),
           0, ""});
    }
  };
  return pass;
}

void register_range_lint_passes() {
  static std::once_flag once;
  std::call_once(once, [] {
    ckt::LintRegistry::instance().add(range_lint_pass());
  });
}

}  // namespace msim::an
