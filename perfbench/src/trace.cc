#include "trace.h"

#include <algorithm>

namespace perfbench {

int Trace::open(const char* name) {
  spans_.push_back({name, now_ns(), 0, current_});
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

std::int64_t Trace::close(int idx) {
  Span& s = spans_[static_cast<std::size_t>(idx)];
  s.end_ns = now_ns();
  current_ = s.parent;
  return s.end_ns - s.start_ns;
}

std::map<std::string, Trace::NameStats> Trace::by_name() const {
  // Children nest strictly inside their parent, so a parent's covered
  // time is the sum of its direct children's durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, NameStats> out;
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    const auto incl = s.end_ns - s.start_ns;
    NameStats& st = out[s.name];
    st.inclusive_us.push_back(static_cast<double>(incl) / 1e3);
    st.self_us.push_back(static_cast<double>(incl - child_ns[k]) / 1e3);
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  if (v.size() % 2) return v[mid];
  const double hi = v[mid];
  return 0.5 * (hi + *std::max_element(v.begin(),
                                       v.begin() + static_cast<long>(mid)));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace perfbench
