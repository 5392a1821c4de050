// SPICE-format netlist writer: serializes a ckt::Netlist back to card
// syntax.  Round-trips through the parser (see tests), and lets the
// generated amplifier netlists be inspected or exported to external
// SPICE tools.
#pragma once

#include <string>

#include "circuit/netlist.h"

namespace msim::spice {

// Serializes the netlist.  Nonlinear devices get a dedicated .model card
// each (named "<device>_m"); devices without a serializable card
// (current-controlled sources, unknown classes) are emitted as comments.
std::string write_netlist(const ckt::Netlist& nl,
                          const std::string& title = "msim netlist");

}  // namespace msim::spice
