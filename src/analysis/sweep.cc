#include "analysis/sweep.h"

namespace msim::an {

std::vector<double> linspace(double lo, double hi, int n) {
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(n));
  if (n == 1) {
    v.push_back(lo);
    return v;
  }
  for (int i = 0; i < n; ++i)
    v.push_back(lo + (hi - lo) * i / (n - 1));
  return v;
}

namespace {

// Structured "point not run" marker for sweep points the budget stopped
// before they started.
OpResult budget_skipped_point(const core::RunBudget& budget,
                              const char* stage) {
  OpResult op;
  op.diag = budget_stop_diag(budget.stop_reason(), stage,
                             "point not run: sweep budget exhausted "
                             "before this point started");
  return op;
}

}  // namespace

std::vector<SweepPoint> dc_sweep(ckt::Netlist& nl,
                                 const std::vector<double>& values,
                                 const std::function<void(double)>& apply,
                                 OpOptions opt) {
  std::vector<SweepPoint> out;
  out.reserve(values.size());
  for (double v : values) {
    SweepPoint pt;
    pt.value = v;
    if (opt.budget && opt.budget->exhausted()) {
      pt.op = budget_skipped_point(*opt.budget, "dc_sweep");
    } else {
      apply(v);
      pt.op = solve_op(nl, opt);
      if (pt.op.converged) opt.initial_guess = pt.op.x;  // continuation
    }
    out.push_back(std::move(pt));
  }
  return out;
}

std::vector<SweepPoint> temperature_sweep(ckt::Netlist& nl,
                                          const std::vector<double>& temps_k,
                                          OpOptions opt) {
  std::vector<SweepPoint> out;
  out.reserve(temps_k.size());
  for (double t : temps_k) {
    opt.temp_k = t;
    SweepPoint pt;
    pt.value = t;
    if (opt.budget && opt.budget->exhausted()) {
      pt.op = budget_skipped_point(*opt.budget, "temperature_sweep");
    } else {
      pt.op = solve_op(nl, opt);
      if (pt.op.converged) opt.initial_guess = pt.op.x;
    }
    out.push_back(std::move(pt));
  }
  return out;
}

}  // namespace msim::an
