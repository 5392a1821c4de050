// Golden-file comparison for byte-identity tests.  Goldens live under
// tests/golden/ and hold the exact text an earlier build produced; a
// test fails on any byte of difference.  A golden superseded by design
// can stay as a tolerance reference (numbers, span, expect_near).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace msim::golden {

inline std::string path(const std::string& name) {
  return std::string(MSIM_TEST_DIR) + "/golden/" + name;
}

inline std::string read(const std::string& name) {
  std::ifstream in(path(name), std::ios::binary);
  EXPECT_TRUE(in) << "missing golden file " << path(name);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

inline void expect(const std::string& name, const std::string& actual) {
  EXPECT_EQ(read(name), actual) << "golden mismatch: " << name;
}

// The numbers of a golden text in order: every whitespace-separated
// token that strtod reads whole (hex floats included); labels such as
// "thd:" are skipped.
inline std::vector<double> numbers(const std::string& text) {
  std::vector<double> out;
  std::istringstream in(text);
  std::string tok;
  while (in >> tok) {
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() + tok.size()) out.push_back(v);
  }
  return out;
}

// max - min of a reference sequence: the swing a tolerance scales with.
inline double span(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  return *hi - *lo;
}

// Element-wise |got - ref| <= tol, for a result that may drift from an
// older golden kept as a tolerance reference.
inline void expect_near(const std::vector<double>& ref,
                        const std::vector<double>& got, double tol) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_NEAR(got[i], ref[i], tol) << "value " << i;
}

// Drops "solver time:" lines (wall-clock dependent) from a report.
inline std::string drop_solver_time(const std::string& s) {
  std::string out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t nl = s.find('\n', pos);
    nl = nl == std::string::npos ? s.size() : nl + 1;
    if (s.compare(pos, 12, "solver time:") != 0) out.append(s, pos, nl - pos);
    pos = nl;
  }
  return out;
}

// C99 hex floats, eight to a line: the exact bits of every value, so a
// golden comparison of the result is a bit-identity check.
inline std::string hex_rows(const std::vector<double>& v) {
  std::string out;
  char buf[40];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%a%c", v[i],
                  i % 8 == 7 || i + 1 == v.size() ? '\n' : ' ');
    out += buf;
  }
  return out;
}

}  // namespace msim::golden
