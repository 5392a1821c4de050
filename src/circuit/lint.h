// Pre-solve netlist lint, organized as a pass framework: every check is
// a named, individually switchable LintPass registered in the global
// LintRegistry.  The analysis layer registers additional passes (the
// structural-rank analyzer and the stamp-contract checker live in
// src/analysis/structural.h because they need the MNA machinery), so
// the registry accepts external registration while this library stays
// free of analysis dependencies.
//
// Built-in passes:
//  * no_devices        (error)   empty netlist;
//  * duplicate_names   (error)   the name index silently shadows, so
//                                .find() and controlled-source
//                                references become ambiguous;
//  * voltage_loop      (error)   loops of ideal voltage branches
//                                (parallel V sources, V/L cycles) make
//                                the MNA matrix structurally singular;
//  * connectivity      (warning) floating nodes (no DC conduction path
//                                to ground), current-source cutsets
//                                (islands fed only through current
//                                sources) and dangling terminals.
//
// Issues carry the SPICE source line of the offending card when the
// netlist came from the parser (0 otherwise).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "circuit/netlist.h"

namespace msim::ckt {

enum class LintKind {
  kDuplicateName,
  kVoltageLoop,
  kFloatingNode,
  kDanglingTerminal,
  kNoDevices,
  kCurrentCutset,        // island connected only through current sources
  kStructuralSingular,   // MNA structural rank deficiency (analysis pass)
  kStampContract,        // device wrote outside its declared pattern
  kNonFiniteParam,       // NaN/Inf device parameter value
  kRailViolation,        // node bound provably outside supply +- margin
  kDeadDevice,           // device provably never conducts (range pass)
  kConditioning,         // interval-scaled row spread forecasts >= 1e12
};

enum class LintSeverity { kWarning, kError };

struct LintIssue {
  LintKind kind;
  LintSeverity severity;
  std::string node;     // offending node name, when node-scoped
  std::string device;   // offending device name, when device-scoped
  std::string message;  // human-readable one-liner
  int line = 0;         // SPICE source line of the offending card, or 0
  std::string pass;     // name of the pass that produced the issue
};

// One registered check.  `run` appends its issues; it must not assume
// assign_unknowns() ran unless the pass documents that requirement and
// guards for it (the analysis-layer passes do).
struct LintPass {
  std::string name;
  std::string description;
  bool default_enabled = true;
  std::function<void(const Netlist&, std::vector<LintIssue>&)> run;
  // True when the pass's verdict depends on device parameter *values*
  // (finite_params, value_range), not just the topology.  A cache keyed
  // by topology fingerprint may reuse the verdict of a value-independent
  // pass across same-topology decks, but value-dependent passes must
  // re-run for every deck (the fingerprint excludes values by design).
  bool value_dependent = false;
};

// Per-invocation pass selection: a pass runs when
//   (default_enabled or named in `enable`) and not named in `disable`.
// `disable` entries also match issue *kinds* (to_string(LintKind)), so
// a single rule from a multi-rule pass can be muted, e.g.
// "floating_node" without losing the rest of the connectivity pass.
struct LintOptions {
  std::vector<std::string> disable;
  std::vector<std::string> enable;
  // Run only passes marked value_dependent.  For callers that proved
  // the value-independent passes clean for this topology (the serve
  // registry's warm path): structural verdicts transfer across decks
  // with the same fingerprint, value verdicts never do.
  bool value_dependent_only = false;
};

// Process-global pass registry.  Thread-safe; registration replaces an
// existing pass of the same name (idempotent re-registration).
class LintRegistry {
 public:
  static LintRegistry& instance();
  void add(LintPass pass);
  // Stable snapshot (registration order) for iteration without holding
  // the registry lock.
  std::vector<LintPass> passes() const;

 private:
  LintRegistry();
  ~LintRegistry();
  struct Impl;
  Impl* impl_;
};

// Short stable identifier ("duplicate_name", "voltage_loop", ...).
const char* to_string(LintKind k);
const char* to_string(LintSeverity s);

// Runs the enabled passes; issues are ordered errors-first (stable
// within each severity, in pass-registration order).  A pass in
// `overrides` runs in place of the registered pass of the same name,
// for a caller that already holds the work that pass would redo.
std::vector<LintIssue> lint(const Netlist& nl, const LintOptions& opt = {},
                            const std::vector<LintPass>& overrides = {});

bool lint_has_errors(const std::vector<LintIssue>& issues);

// Multi-line report, one issue per line; empty string when clean.
std::string lint_report(const std::vector<LintIssue>& issues);

// Machine-readable report: {"issues":[...],"errors":N,"warnings":N}.
std::string lint_json(const std::vector<LintIssue>& issues);

}  // namespace msim::ckt
