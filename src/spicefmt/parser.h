// SPICE-format netlist reader.
//
// Accepts the familiar card syntax so existing analog netlists (and
// hand-written experiments) can drive this simulator without C++:
//
//   * elements: R C L V I E G F H D Q M S
//   * sources:  DC, AC mag [phase], SIN(o a f [td theta]),
//               PULSE(v1 v2 td tr tf pw per), PWL(t1 v1 t2 v2 ...)
//   * .model   NMOS/PMOS (level-1 parameters), NPN/PNP, D, SW
//   * .subckt / .ends definitions and X instantiation (flattened)
//   * .op/.dc/.ac/.tran/.noise/.temp collected as directives for the
//     caller (see tools/msim_cli.cpp)
//   * SI suffixes: f p n u m k meg g t; continuation lines (+); comments
//     (* and ;), .end
//
// The parser flattens hierarchy into the same ckt::Netlist the C++ API
// builds, so every analysis works identically on parsed circuits.
//
// One text pass: the deck is lower-cased once into a single buffer
// (the title line excepted, kept verbatim) and split into string_view
// tokens that both the definition pass (.param/.model/.subckt) and the
// element pass read.  Numbers go through std::from_chars; forms it
// reads differently from strtod (a leading '+', hex, inf/nan, out-of-
// range magnitudes) take the std::stod path, so every value is the
// double std::stod would give.  .model cards resolve once into per-
// family parameter structs.  A .subckt that instantiates itself,
// directly or through other subcircuits, is a parse error at the X card
// that closes the cycle.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "circuit/netlist.h"

namespace msim::spice {

struct AnalysisDirective {
  std::string kind;               // "op", "ac", "tran", "noise", "dc", ...
  std::vector<std::string> args;  // raw tokens after the keyword
};

struct ParseResult {
  std::unique_ptr<ckt::Netlist> netlist;
  std::string title;
  std::vector<AnalysisDirective> directives;
  double temp_c = 27.0;  // from .temp, if present
};

// Parses a netlist from text.  Throws std::runtime_error with a
// line-numbered message on malformed input.
ParseResult parse_netlist(const std::string& text);

// Convenience: reads the file and parses it.
ParseResult parse_netlist_file(const std::string& path);

// Parses one SPICE number with SI suffix ("2.2k", "10u", "5meg").
// Throws on malformed input.
double parse_value(const std::string& token);

}  // namespace msim::spice
