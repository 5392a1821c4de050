#include "analysis/diag.h"

#include <cmath>

#include "core/text_writer.h"

namespace msim::an {

const char* to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOk: return "ok";
    case SolveStatus::kSingularMatrix: return "singular_matrix";
    case SolveStatus::kNonConvergence: return "non_convergence";
    case SolveStatus::kNonFinite: return "non_finite";
    case SolveStatus::kBadTopology: return "bad_topology";
    case SolveStatus::kBudgetExceeded: return "budget_exceeded";
    case SolveStatus::kCancelled: return "cancelled";
  }
  return "unknown";
}

std::string SolveDiag::message() const {
  if (ok()) return "ok";
  core::TextWriter w;
  w.add(to_string(status));
  if (!stage.empty()) w.add(" [stage ").add(stage).add(']');
  if (!unknown.empty()) w.add(" at ").add(unknown);
  if (!device.empty()) w.add(" (device ").add(device).add(')');
  if (status == SolveStatus::kNonConvergence)
    w.add(", max |dx| = ").num(residual);
  if (iterations > 0) w.add(", ").integer(iterations).add(" iterations");
  if (!detail.empty()) w.add(": ").add(detail);
  return w.take();
}

SolveDiag budget_stop_diag(core::StopReason reason, std::string stage,
                           std::string detail) {
  SolveDiag d;
  d.status = reason == core::StopReason::kCancelled
                 ? SolveStatus::kCancelled
                 : SolveStatus::kBudgetExceeded;
  d.stage = std::move(stage);
  if (detail.empty())
    d.detail = std::string("stopped: ") + core::to_string(reason);
  else
    d.detail = std::move(detail);
  return d;
}

SolveDiag frequency_grid_diag(const std::vector<double>& freqs_hz,
                              const char* stage, bool zero_ok) {
  for (std::size_t i = 0; i < freqs_hz.size(); ++i) {
    const double f = freqs_hz[i];
    if (std::isfinite(f) && (f > 0.0 || (zero_ok && f == 0.0))) continue;
    SolveDiag d;
    d.status = SolveStatus::kBadTopology;
    d.stage = stage;
    d.detail = core::TextWriter()
                   .add("invalid options: f[").integer(i).add("] = ").num(f)
                   .add(" Hz is not finite and ").add(zero_ok ? ">= 0" : "> 0")
                   .take();
    return d;
  }
  return SolveDiag::success();
}

std::string unknown_label(const ckt::Netlist& nl, int idx) {
  if (idx < 0) return "?";
  if (idx < nl.node_count() - 1) return "v(" + nl.node_name(idx + 1) + ")";
  for (const auto& d : nl.devices()) {
    const int base = d->branch_base();
    const int count = d->branch_count();
    if (count > 0 && idx >= base && idx < base + count) {
      if (count == 1) return "i(" + d->name() + ")";
      return "i(" + d->name() + "." + std::to_string(idx - base) + ")";
    }
  }
  return "unknown#" + std::to_string(idx);
}

std::string device_touching_unknown(const ckt::Netlist& nl, int idx) {
  if (idx < 0) return {};
  if (idx >= nl.node_count() - 1) {
    for (const auto& d : nl.devices()) {
      const int base = d->branch_base();
      const int count = d->branch_count();
      if (count > 0 && idx >= base && idx < base + count) return d->name();
    }
    return {};
  }
  const ckt::NodeId node = idx + 1;
  for (const auto& d : nl.devices())
    for (const ckt::NodeId n : d->nodes())
      if (n == node) return d->name();
  return {};
}

}  // namespace msim::an
