// Structured solver diagnostics shared by every analysis entry point.
//
// A SolveDiag replaces "converged == false" and bare runtime_error
// strings with a machine-readable diagnosis: which failure class, which
// MNA unknown (node voltage or device branch current), which device is
// implicated, and how far the homotopy ladder got.  Sweeps and the
// Monte-Carlo harness aggregate these per point/sample so that one bad
// corner degrades gracefully instead of aborting a whole run.
#pragma once

#include <string>
#include <vector>

#include "circuit/netlist.h"
#include "core/budget.h"

namespace msim::an {

enum class SolveStatus {
  kOk = 0,
  // LU found no usable pivot; `unknown` names the zero-pivot column.
  kSingularMatrix,
  // Newton ran out of iterations; `unknown` is the worst-residual
  // unknown, `residual` the final max |dx|, `stage` the homotopy stage
  // reached ("newton", "gmin", "source", "tran").
  kNonConvergence,
  // A NaN/Inf appeared; `unknown` is the first non-finite entry and
  // `device` the (first) device stamping onto it.
  kNonFinite,
  // The netlist failed the pre-solve lint pass; `detail` carries the
  // lint report.
  kBadTopology,
  // A core::RunBudget limit (wall deadline, Newton-iteration or step
  // cap) expired; the analysis returned a structured partial result
  // (see docs/robustness.md).  `detail` says which limit and where the
  // run was cut.
  kBudgetExceeded,
  // A core::CancelToken fired; same partial-result contract as
  // kBudgetExceeded.
  kCancelled,
};

// True for the cooperative-stop statuses: the run was cut short by a
// budget or cancel request rather than by a numerical failure, and the
// result carries a valid prefix (see docs/robustness.md).
inline bool is_budget_stop(SolveStatus s) {
  return s == SolveStatus::kBudgetExceeded || s == SolveStatus::kCancelled;
}

// Short stable identifier ("ok", "singular_matrix", ...).
const char* to_string(SolveStatus s);

struct SolveDiag {
  SolveStatus status = SolveStatus::kOk;
  std::string unknown;  // offending unknown, e.g. "v(out)" or "i(V1)"
  std::string device;   // implicated device name, when identifiable
  std::string stage;    // homotopy stage / analysis phase reached
  double residual = 0.0;  // final max |dx| (kNonConvergence), else 0
  int iterations = 0;     // Newton iterations spent before giving up
  std::string detail;     // free-form context (lint report, time point)

  bool ok() const { return status == SolveStatus::kOk; }
  // One-line human-readable rendering for logs and CLI output.
  std::string message() const;

  static SolveDiag success() { return {}; }
};

// Standard diagnosis for a cooperative stop: kCancelled for a fired
// CancelToken, kBudgetExceeded for every budget limit, with the stop
// reason ("deadline", "iterations", "steps") recorded in `detail`.
SolveDiag budget_stop_diag(core::StopReason reason, std::string stage,
                           std::string detail = {});

// The frequency-grid check of the AC and noise entry points: a
// kBadTopology "invalid options" diag at `stage` naming the first point
// that is not finite, is negative, or -- unless `zero_ok` -- is 0 Hz.
// An ok() diag for a valid grid, the empty one included.
SolveDiag frequency_grid_diag(const std::vector<double>& freqs_hz,
                              const char* stage, bool zero_ok);

// Label for MNA unknown index `idx` (post assign_unknowns()): node
// voltages render as "v(<name>)", device branch currents as
// "i(<device>)" (with a ".k" suffix for multi-branch devices).
std::string unknown_label(const ckt::Netlist& nl, int idx);

// Name of a device stamping onto unknown `idx`: the owner for branch
// unknowns, otherwise the first device with a terminal on that node.
// Empty string when nothing matches.
std::string device_touching_unknown(const ckt::Netlist& nl, int idx);

}  // namespace msim::an
