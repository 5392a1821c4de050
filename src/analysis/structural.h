// Static structural analysis of the MNA system, run before any numeric
// factorization.
//
// Three facilities:
//
//  * analyze_structure(): records the *actual* DC stamp pattern of every
//    device (via the ckt::StampRecord target, at x = 0), adds the gshunt
//    node diagonals the assembler would add, and computes the structural
//    rank of the resulting bipartite equation/unknown graph by maximum
//    matching (Hopcroft-Karp).  A structural rank below the unknown
//    count proves the matrix is singular for *every* numeric value, so
//    voltage-source loops, current-source cutsets that pin a branch
//    equation, and similar wiring mistakes are rejected with named
//    equations, unknowns and devices (Dulmage-Mendelsohn style
//    alternating-reachability sets) instead of a late zero pivot.
//
//  * check_stamp_contracts(): replays every device's stamp()/stamp_ac()
//    against a recording context and diffs the written positions against
//    declare_stamps().  An out-of-pattern write is exactly the class of
//    bug that corrupts the shared sparse skeleton of PR 2; this turns it
//    into a hard, named error.  Debug builds run it automatically when a
//    RealSystem first builds a netlist's pattern; release builds expose
//    it as the (off-by-default) "stamp_contract" lint pass and this API.
//
//  * preflight(): the mandatory cheap pre-pass shared by op/AC/noise/
//    transient/MC.  Registers the analysis lint passes, runs ckt::lint,
//    and converts a fatal report into a SolveDiag (kBadTopology, stage
//    "lint").  Clean verdicts are cached on the netlist keyed by a
//    structure-only fingerprint, and Monte-Carlo sample netlists inherit
//    sample 0's verdict when they adopt its solver cache (an::run_samples),
//    so the per-sample cost is one hash, not one analysis.
#pragma once

#include <string>
#include <vector>

#include "analysis/diag.h"
#include "circuit/lint.h"
#include "circuit/netlist.h"

namespace msim::an {

// One independent structurally singular block: the equations in it can
// not all be matched to distinct unknowns.
struct StructuralDeficiency {
  std::vector<std::string> equations;  // involved equation labels
  std::vector<std::string> unknowns;   // unknowns reachable from them
  std::vector<std::string> devices;    // devices stamping the equations
  std::string node;    // representative node name ("" if none involved)
  std::string device;  // representative device name
  std::string message;  // one-line human-readable summary
};

struct StructuralReport {
  int unknowns = 0;
  int structural_rank = 0;
  std::vector<StructuralDeficiency> deficiencies;

  bool singular() const { return structural_rank < unknowns; }
};

// Requires assign_unknowns().  Pure analysis: no matrix is allocated
// and no factorization runs.
StructuralReport analyze_structure(const ckt::Netlist& nl);

// One out-of-pattern stamp write.
struct StampContractViolation {
  std::string device;
  std::string context;  // "dc", "tran" or "ac" stamping pass
  int row = -1;
  int col = -1;
  std::string row_label;  // unknown_label(row), or "<out of range>"
  std::string col_label;
  std::string message;
};

// Requires assign_unknowns().  Replays stamp()/stamp_ac() of every
// device in DC, transient and AC recording mode and reports every write
// outside the device's declare_stamps() envelope.
std::vector<StampContractViolation> check_stamp_contracts(
    const ckt::Netlist& nl);

// Registers the analysis-layer lint passes ("structural_rank" and
// "stamp_contract") in the global ckt::LintRegistry.  Idempotent and
// thread-safe; called automatically by preflight().
void register_analysis_lint_passes();

struct PreflightOptions {
  // Escalate warnings (floating nodes, cutsets, dangling terminals) to
  // a kBadTopology failure as well.
  bool strict = false;
  // Per-pass selection forwarded to ckt::lint().
  std::vector<std::string> disable;
  std::vector<std::string> enable;
  // Reuse / populate the netlist's cached clean verdict.  Benchmarks
  // disable this to measure the cold pass.
  bool use_cache = true;
};

// The shared static pre-pass: diag.ok() when the netlist may proceed to
// numeric assembly.  On failure the diag carries stage "lint", the
// first issue's node/device and the full lint report in `detail`.
SolveDiag preflight(ckt::Netlist& nl, const PreflightOptions& opt = {});

// Records `nl`'s clean verdict under its topology fingerprint: the
// next preflight() over the same structure returns at once.  preflight
// stores its own clean results through this; a caller that ran every
// registered pass itself (no pass disabled, none skipped) and got zero
// issues stores its result the same way.
void record_clean_verdict(const ckt::Netlist& nl);

// Process-wide count of full (uncached) structural lint executions;
// tests assert Monte-Carlo samples hit the verdict cache instead of
// re-running the analysis.
long preflight_full_runs();

}  // namespace msim::an
