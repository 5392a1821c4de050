#include "host.h"

#include <sched.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace.h"

namespace perfbench {
namespace {

volatile double g_sink = 0.0;

// 200 cards "r<k> n<a> n<b> <value>e3" over 40 node names, from a fixed
// LCG, so every run and every build sees the same text.
const std::string& reference_deck() {
  static const std::string text = [] {
    std::string s;
    std::uint64_t x = 12345;
    char card[64];
    for (int k = 0; k < 200; ++k) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      std::snprintf(card, sizeof card, "r%d n%u n%u %u.0e3\n", k,
                    static_cast<unsigned>((x >> 33) % 40),
                    static_cast<unsigned>((x >> 45) % 40),
                    static_cast<unsigned>(1 + (x >> 20) % 1000));
      s += card;
    }
    return s;
  }();
  return text;
}

double reference_call(const std::string& text) {
  std::vector<std::string> tok;
  std::string cur;
  for (char c : text) {
    if (c == ' ' || c == '\n') {
      if (!cur.empty()) tok.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  constexpr int n = 40;
  std::unordered_map<std::string, int> ids;
  std::vector<double> a(n * n, 0.0);
  for (int i = 0; i < n; ++i) a[i * n + i] = 1e-3;
  auto id = [&](const std::string& name) {
    return ids.try_emplace(name, static_cast<int>(ids.size())).first->second %
           n;
  };
  for (std::size_t k = 0; k + 3 < tok.size(); k += 4) {
    const int p = id(tok[k + 1]);
    const int q = id(tok[k + 2]);
    const double g = 1.0 / std::strtod(tok[k + 3].c_str(), nullptr);
    a[p * n + p] += g;
    a[q * n + q] += g;
    a[p * n + q] -= g;
    a[q * n + p] -= g;
  }
  for (int k = 0; k < n; ++k)
    for (int i = k + 1; i < n; ++i) {
      const double f = a[i * n + k] / a[k * n + k];
      for (int j = k; j < n; ++j) a[i * n + j] -= f * a[k * n + j];
    }
  return a[n * n - 1];
}

}  // namespace

double host_ref_us(int calls) {
  const std::string& text = reference_deck();
  std::vector<double> us;
  for (int c = 0; c < calls; ++c) {
    const auto t0 = now_ns();
    g_sink = reference_call(text);
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return median(us);
}

int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

}  // namespace perfbench
