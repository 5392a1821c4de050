// Formatted operating-point report: the ".op printout" a designer reads
// first - node voltages plus a per-device bias table (currents,
// transconductances, regions).  Used by msim_cli and handy in tests.
#pragma once

#include <string>

#include "analysis/op.h"
#include "analysis/range.h"
#include "circuit/netlist.h"

namespace msim::an {

// Renders the solved operating point.  Devices must hold saved OPs
// (solve_op() does this on success).  For a failed solve, renders the
// structured SolveDiag (cause, offending unknown/device, stage) instead
// of the bias tables.
std::string op_report(const ckt::Netlist& nl, const OpResult& op);

// The same report with the netlist's value-range analysis supplied by
// the caller (range_analysis(nl, {}) on the netlist as solved): a deck
// job runs that analysis once for its lint pass and reuses it here.
std::string op_report(const ckt::Netlist& nl, const OpResult& op,
                      const RangeReport& range);

}  // namespace msim::an
