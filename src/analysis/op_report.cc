#include "analysis/op_report.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <vector>

#include "core/text_writer.h"
#include "devices/bjt.h"
#include "devices/mosfet.h"
#include "devices/sources.h"

namespace msim::an {
namespace {

// The report appends straight into one string through the shared text
// writer; its numbers are printf's "%.3g" (num(v, 3)) and "%.3f"
// (fixed(v, 3)).  The table helpers below sit on top of it.
class Report : public core::BasicTextWriter<Report> {
 public:
  Report() { s_.reserve(4096); }

  // Engineering notation: "4.7 kV", "-12 uA"; below a femto the plain
  // %.3g value.
  Report& eng(double v, std::string_view unit) {
    static const struct {
      double scale;
      const char* prefix;
    } kScales[] = {{1e9, "G"}, {1e6, "M"}, {1e3, "k"}, {1.0, ""},
                   {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"},
                   {1e-15, "f"}};
    const double a = std::abs(v);
    if (a == 0.0) return add("0 ").add(unit);
    for (const auto& s : kScales)
      if (a >= s.scale)
        return num(v / s.scale, 3).add(' ').add(s.prefix).add(unit);
    return num(v, 3).add(' ').add(unit);
  }

  // Table lines: line() starts an indented line; col() left-justifies
  // the text since the previous column in `width` characters (printf's
  // "%-Ns") and adds the one-space separator.
  Report& line() {
    line_ = s_.size();
    add("  ");
    col_ = s_.size();
    return *this;
  }
  Report& col(std::size_t width) {
    const std::size_t len = s_.size() - col_;
    if (len < width) s_.append(width - len, ' ');
    s_ += ' ';
    col_ = s_.size();
    return *this;
  }
  // A line is capped at 159 bytes, its newline included in the cut:
  // the report's established rendering of overlong names.
  void end() {
    s_ += '\n';
    if (s_.size() - line_ > 159) s_.resize(line_ + 159);
  }

 private:
  std::size_t line_ = 0, col_ = 0;
};

template <typename D>
std::vector<const D*> devices_of(const ckt::Netlist& nl) {
  std::vector<const D*> out;
  for (const auto& d : nl.devices())
    if (const auto* x = dynamic_cast<const D*>(d.get())) out.push_back(x);
  return out;
}

}  // namespace

std::string op_report(const ckt::Netlist& nl, const OpResult& op) {
  return op_report(nl, op,
                   op.converged ? range_analysis(nl, {}) : RangeReport{});
}

std::string op_report(const ckt::Netlist& nl, const OpResult& op,
                      const RangeReport& rr) {
  Report os;
  if (!op.converged) {
    os.add("operating point FAILED: ").add(op.diag.message()).add("\n");
    return os.take();
  }
  const FactorStats& st = op.solver_stats;
  os.add("solved by ").add(op.method.empty() ? "newton" : op.method)
      .add(" homotopy in ").integer(op.iterations)
      .add(" iterations\n");
  if (st.factor_count > 0)
    os.add("factorizations: ").integer(st.factor_count)
        .add(" (reused ").integer(st.reuse_count).add(")\n");
  if (st.refine_count > 0) {
    const auto it = st.refactor_reasons.find("iterative_refinement");
    os.add("iterative refinement: ").integer(st.refine_count)
        .add(" rounds (forced refactors: ")
        .integer(it == st.refactor_reasons.end() ? 0 : it->second)
        .add(")\n");
  }
  if (st.stamp_ns + st.factor_ns + st.solve_ns > 0)
    os.add("solver time: stamp ").num(st.stamp_ns / 1e6, 3)
        .add(" ms, factor ").num(st.factor_ns / 1e6, 3).add(" ms, solve ")
        .num(st.solve_ns / 1e6, 3).add(" ms\n");

  os.add("node voltages:\n");
  for (int n = 1; n < nl.node_count(); ++n)
    os.line().add(nl.node_name(n)).col(24).eng(op.v(n), "V").end();

  if (const auto mos = devices_of<dev::Mosfet>(nl); !mos.empty()) {
    os.add("mosfets:\n  name                 id         gm         gds  "
           "      veff     region\n");
    for (const auto* m : mos) {
      const auto& o = m->op();
      os.line().add(m->name()).col(20).eng(o.id, "A").col(10)
          .eng(o.gm, "S").col(10).eng(o.gds, "S").col(10)
          .fixed(o.veff, 3).col(8)
          .add(o.saturated ? (o.reversed ? "sat(rev)" : "sat") : "triode")
          .end();
    }
  }
  if (const auto bjt = devices_of<dev::Bjt>(nl); !bjt.empty()) {
    os.add("bjts:\n  name                 ic         ib         gm         "
           "vbe\n");
    for (const auto* q : bjt) {
      const auto& o = q->op();
      os.line().add(q->name()).col(20).eng(o.ic, "A").col(10)
          .eng(o.ib, "A").col(10).eng(o.gm, "S").col(10).eng(o.vbe, "V")
          .end();
    }
  }
  os.add("sources:\n");
  for (const auto* v : devices_of<dev::VSource>(nl))
    os.line().add(v->name()).col(20).eng(v->current(op.x), "A").end();

  // Static headroom: the interval pre-pass bounds hold for every
  // quasi-static source excursion and switch code, so they complement
  // the single-point voltages above with worst-case rail margins.
  if (rr.supply_bounded && !rr.headroom.empty()) {
    os.add("static value-range (worst case over sources and switch "
           "codes):\n");
    const std::size_t show = std::min<std::size_t>(rr.headroom.size(), 6);
    for (std::size_t i = 0; i < show; ++i) {
      const auto& h = rr.headroom[i];
      os.line().add(h.node).col(24).add("[").eng(h.bound.lo, "V").add(", ")
          .eng(h.bound.hi, "V").add("] headroom ").eng(h.headroom, "V")
          .end();
    }
  }
  return os.take();
}

}  // namespace msim::an
