// Span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code, around calls into
// each layer's public entry points (the program itself is not
// instrumented).  Every span keeps its name, start, end and parent; the
// recorder holds them in memory until the run ends, then reduces them
// to per-name inclusive and self times (self = span minus the part of
// its interval covered by child spans).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the recorder's spans, -1 = top level
};

class Trace {
 public:
  // Opens a span as a child of the innermost open span.
  int open(const char* name);
  // Closes span `idx` (the innermost open one); returns its duration
  // in nanoseconds.
  std::int64_t close(int idx);

  struct NameStats {
    std::vector<double> inclusive_us;  // one entry per span
    std::vector<double> self_us;
  };
  // Per-name inclusive and self durations over every recorded span.
  std::map<std::string, NameStats> by_name() const;

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

// RAII span; a null trace records nothing.
class Scope {
 public:
  Scope(Trace* t, const char* name) : t_(t), idx_(t ? t->open(name) : -1) {}
  ~Scope() { end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  // Closes early; returns the span's duration in microseconds (0 when
  // untraced or already closed).
  double end() {
    if (!t_ || idx_ < 0) return 0.0;
    const double us = static_cast<double>(t_->close(idx_)) / 1e3;
    idx_ = -1;
    return us;
  }

 private:
  Trace* t_;
  int idx_;
};

// Per-layer observations that are not span durations (counts, ratios,
// derived times), one value per observation.
class Samples {
 public:
  void add(const std::string& name, double v) { s_[name].push_back(v); }
  const std::map<std::string, std::vector<double>>& all() const { return s_; }

 private:
  std::map<std::string, std::vector<double>> s_;
};

double median(std::vector<double> v);
double mean(const std::vector<double>& v);

}  // namespace perfbench
