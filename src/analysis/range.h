// Value-range static analysis: interval abstract interpretation over
// the MNA unknowns, run before any factorization.
//
// Every unknown starts at [-inf, +inf]; devices narrow the intervals
// through their range_eval() hooks (see circuit/range.h for the device
// contract) and the driver applies the resistive-network maximum
// principle: a node touched exclusively by declared conductive branches
// and zero-DC-current terminals is bounded by the convex hull of its
// neighbours plus ground (the gshunt tie).  Meets only ever shrink, so
// the sweep loop is a monotone fixed-point iteration; the sweep cap is
// a truncation-style widening that keeps every intermediate state a
// sound over-approximation.
//
// The verdicts derived from the fixed point:
//
//  * rail violation (error)  -- a node's bound lies ENTIRELY outside
//    the supply hull.  Because switch resistances are
//    analysed as the [r_on, r_off] union, the bound covers every PGA
//    gain code at once; overlap with the rails never fires (a bound
//    merely reaching a rail is normal for supply and probe nodes).
//  * dead device (warning)   -- a MOS that can never reach V_GS > V_TH
//    in either channel orientation, a diode that can never forward-
//    bias, a BJT with both junctions provably reverse-biased.
//  * conditioning forecast (warning) -- the interval-scaled row-
//    magnitude spread of one sparse assembly at the bound midpoints
//    predicts a condition number >= kRangeCondThreshold.
//
// All bounds are for the DC (operating-point) abstraction with source
// waveforms widened to their min/max hull.  See docs/static_analysis.md.
#pragma once

#include <string>
#include <vector>

#include "circuit/lint.h"
#include "circuit/netlist.h"
#include "numeric/interval.h"

namespace msim::an {

// Fixed-point sweep cap (truncation widening): bounds after k sweeps
// are sound for any k, so the cap trades precision for time only.
inline constexpr int kRangeMaxSweeps = 16;
// Interval-scaled row-magnitude spread that trips the conditioning
// forecast warning.
inline constexpr double kRangeCondThreshold = 1e12;

struct RangeOptions {
  double temp_k = 300.15;
};

struct RangeRailViolation {
  std::string node;
  num::Interval bound;
  std::string device;  // representative device touching the node
  std::string message;
};

struct RangeDeadDevice {
  std::string device;
  std::string type;
  std::string reason;
  int line = 0;  // SPICE source line, when parsed
};

struct RangeNodeBound {
  std::string node;
  num::Interval bound;
  // Distance from the bound to the nearer rail (negative would be a
  // violation; the report lists bounded nodes ascending by headroom).
  double headroom = 0.0;
};

struct RangeDeviceCurrent {
  std::string device;
  num::Interval amps;
};

struct RangeReport {
  int unknowns = 0;
  int sweeps = 0;
  bool converged = false;  // fixed point reached before the sweep cap
  // Per-unknown bounds (node voltages first, then branch currents).
  std::vector<num::Interval> bounds;
  // Supply hull: convex hull of every bounded supply node and ground.
  bool supply_bounded = false;
  num::Interval supply_hull = num::Interval::point(0.0);
  std::vector<std::string> supply_names;
  std::vector<RangeRailViolation> rail_violations;
  std::vector<RangeDeadDevice> dead_devices;
  // Bounded nodes ascending by headroom (tightest first).
  std::vector<RangeNodeBound> headroom;
  std::vector<RangeDeviceCurrent> currents;
  // Interval-scaled row-magnitude spread of one sparse assembly at the
  // bound midpoints (see range.cc); 0 when not computed.
  bool cond_available = false;
  double cond_forecast = 0.0;
};

// Runs the interpreter.  Requires assign_unknowns(); returns an empty
// report (unknowns == 0) otherwise.  Pure static analysis: no matrix
// factorization, no device state of consequence is touched.
RangeReport range_analysis(const ckt::Netlist& nl,
                           const RangeOptions& opt = {});

// Short human-readable summary (op_report appends the headroom lines).
// serve::range_json renders the machine-readable report (msim_cli
// --range).
std::string range_text(const RangeReport& r);

// The "value_range" lint pass.  With a report it emits that report's
// issues instead of running the analysis: serve::run_deck computes one
// report per job, lints with it (ckt::lint's overrides) and hands the
// same report to op_report.
ckt::LintPass range_lint_pass(const RangeReport* report = nullptr);

// Registers the "value_range" lint pass in the global ckt::LintRegistry.
// One pass, three issue kinds sharing a single range_analysis run:
// rail_violation (error), dead_device (warning), conditioning_forecast
// (warning); each kind is individually mutable via LintOptions::disable.
// Idempotent; called by register_analysis_lint_passes(), so every
// preflight arms it.
void register_range_lint_passes();

}  // namespace msim::an
