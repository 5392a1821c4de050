// Piecewise-linear interpolation over a sorted breakpoint table.
//
// Used by PWL sources, the psophometric weighting table and measured-curve
// comparisons in the benches.
#pragma once

#include <cstddef>
#include <vector>

namespace msim::num {

class PiecewiseLinear {
 public:
  PiecewiseLinear() = default;
  // `xs` must be strictly increasing and the two arrays equally sized.
  PiecewiseLinear(std::vector<double> xs, std::vector<double> ys);

  // Evaluates with flat extrapolation outside [xs.front(), xs.back()].
  double operator()(double x) const;

  bool empty() const { return xs_.empty(); }
  std::size_t size() const { return xs_.size(); }
  const std::vector<double>& xs() const { return xs_; }
  const std::vector<double>& ys() const { return ys_; }
  // Extremes over the table values.  With flat extrapolation and linear
  // interior segments these bound the function everywhere, which is
  // what the value-range analysis widens a PWL source to.
  double y_min() const;
  double y_max() const;

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
};

}  // namespace msim::num
