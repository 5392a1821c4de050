// Golden-file comparison for byte-identity tests.  Goldens live under
// tests/golden/ and hold the exact text an earlier build produced; a
// test fails on any byte of difference.
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

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

}  // namespace msim::golden
