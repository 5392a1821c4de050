// Parameter sweeps built on the operating-point solver: generic DC
// sweeps with solution continuation, plus a temperature sweep (the
// workhorse of the bandgap TC experiment).
#pragma once

#include <functional>
#include <vector>

#include "analysis/op.h"
#include "circuit/netlist.h"

namespace msim::an {

struct SweepPoint {
  double value = 0.0;   // swept parameter value
  OpResult op;
};

// Sweeps an arbitrary knob: `apply` mutates the netlist for each value
// (e.g. sets a source voltage); each point starts Newton from the
// previous solution, which tracks the curve through high-gain regions.
//
// Budget contract (opt.budget): the shared budget is polled before each
// point and forwarded into every solve_op.  Once it expires the solved
// prefix is kept and every remaining point carries a structured
// kBudgetExceeded / kCancelled diag ("point not run") -- a partial
// result, never an exception.  The same applies to temperature_sweep
// below.
std::vector<SweepPoint> dc_sweep(ckt::Netlist& nl,
                                 const std::vector<double>& values,
                                 const std::function<void(double)>& apply,
                                 OpOptions opt = {});

// Temperature sweep: re-solves the OP at each temperature (devices
// re-derive their temperature-dependent parameters internally).
std::vector<SweepPoint> temperature_sweep(ckt::Netlist& nl,
                                          const std::vector<double>& temps_k,
                                          OpOptions opt = {});

// Uniform grid helper.
std::vector<double> linspace(double lo, double hi, int n);

}  // namespace msim::an
