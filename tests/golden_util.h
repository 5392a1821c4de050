// Golden-file comparison for byte-identity tests.  Goldens live under
// tests/golden/ and hold the exact text an earlier build produced; a
// test fails on any byte of difference.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace msim::golden {

inline std::string path(const std::string& name) {
  return std::string(MSIM_TEST_DIR) + "/golden/" + name;
}

inline void expect(const std::string& name, const std::string& actual) {
  std::ifstream in(path(name), std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path(name);
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), actual) << "golden mismatch: " << name;
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
