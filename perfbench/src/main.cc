// perfbench: the repository's end-to-end benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --workload NAME --seed N --setup-only
//
// A run pins itself to one CPU, generates the workload's inputs from the
// seed, sets the program up (timed as setup_s), then runs a closed loop
// -- one client, one op in flight -- until the ops' summed wall time
// reaches S seconds.  Every timing is scaled to the reference host speed
// (host.h, scaled_timing).  Every op's output is checked after the loop.
// With --trace 1 the first half of the time runs untraced and the second
// half traced, and the metrics are the per-layer ones.  Output: one
// host-block line, in traced runs one span-summary line, and last one
// result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{...}}.
// --setup-only prints {"setup_s":..} instead (perfbench/run.py repeats
// set-up in fresh processes and reports the median).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/mna.h"
#include "host.h"
#include "numeric/sparse.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool setup_only = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end) return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end || !(a.seconds > 0.0)) return false;
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
      if (a.trace != 0 && a.trace != 1) return false;
    } else {
      return false;
    }
  }
  return !a.workload.empty();
}

double cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int process_threads() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  return 0;
}

std::string loadavg_json() {
  double l[3] = {0, 0, 0};
  if (getloadavg(l, 3) != 3) return "null";
  char buf[96];
  std::snprintf(buf, sizeof buf, "[%.2f,%.2f,%.2f]", l[0], l[1], l[2]);
  return buf;
}

// One reference call follows every op, so it runs in the cache state an
// op leaves, as the next op does (back-to-back calls run hot and slow
// down by a different factor than the ops).  Ops are grouped into
// windows of >= 250 ms of op time and >= 16 ops, well inside the seconds
// a speed state holds; each window is scaled by its median reference.
constexpr double kWindowMs = 250.0;
constexpr std::size_t kWindowOps = 16;
constexpr int kSetupRefCalls = 32;

struct Loop {
  std::vector<double> lat_ms;  // per op
  std::vector<double> cpu_ms;  // per op, whole process
  std::vector<double> ref_us;  // per op, the reference call after it
  std::vector<std::size_t> cut;  // op index that ends each window
  double busy_ms = 0.0;
};

// Closed loop: stage (untimed), op (timed), record (untimed), in traced
// runs the op's paired per-layer work (untimed), one reference call.
Loop run_loop(Workload& w, std::size_t first, double seconds, Trace* t,
              Samples* s) {
  Loop r;
  double window_ms = 0.0;
  std::size_t window_begin = 0;
  for (std::size_t i = first; r.busy_ms < seconds * 1e3; ++i) {
    w.stage(i);
    const long searches0 = s ? msim::num::sparse_search_count() : 0;
    const long factors0 = s ? msim::an::factor_call_count() : 0;
    const double c0 = cpu_ms();
    const auto t0 = now_ns();
    w.op(i, t, s);
    const auto t1 = now_ns();
    r.cpu_ms.push_back(cpu_ms() - c0);
    const double ms = static_cast<double>(t1 - t0) / 1e6;
    r.lat_ms.push_back(ms);
    r.busy_ms += ms;
    window_ms += ms;
    if (s) {
      s->add("numeric.pattern_searches_per_op",
             static_cast<double>(msim::num::sparse_search_count() - searches0));
      s->add("numeric.factor_calls_per_op",
             static_cast<double>(msim::an::factor_call_count() - factors0));
    }
    w.record(i);
    if (t) w.after_traced_op(i, *t, *s);
    r.ref_us.push_back(host_ref_us(1));
    if (window_ms >= kWindowMs &&
        r.lat_ms.size() - window_begin >= kWindowOps) {
      window_begin = r.lat_ms.size();
      r.cut.push_back(window_begin);
      window_ms = 0.0;
    }
  }
  if (r.cut.empty() || r.cut.back() != r.lat_ms.size())
    r.cut.push_back(r.lat_ms.size());
  return r;
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

struct Timing {
  double p50_ms = 0.0, p95_ms = 0.0, ops_per_s = 0.0, cpu_ms_per_op = 0.0;
};

// Per-op wall and CPU times multiplied by `scale` (per op).  Host
// interference (preemption, neighbours' bursts) arrives in bursts, and
// its share of a run moves a whole-run p95 by 15-25 % between runs; the
// program's own slow ops are spread over every window.  So the p95 is
// the lower quartile, over the run's full windows, of each window's p95:
// the tail of a quiet stretch.
Timing timing(const Loop& l, const std::vector<double>& scale) {
  std::vector<double> lat(l.lat_ms.size());
  double busy = 0.0, cpu = 0.0;
  for (std::size_t i = 0; i < lat.size(); ++i) {
    lat[i] = l.lat_ms[i] * scale[i];
    busy += lat[i];
    cpu += l.cpu_ms[i] * scale[i];
  }
  std::vector<double> window_p95;
  std::size_t begin = 0;
  for (const std::size_t end : l.cut) {
    if (end - begin >= kWindowOps || l.cut.size() == 1)
      window_p95.push_back(
          percentile({lat.begin() + static_cast<long>(begin),
                      lat.begin() + static_cast<long>(end)},
                     0.95));
    begin = end;
  }
  const auto n = static_cast<double>(lat.size());
  return {percentile(lat, 0.50), percentile(window_p95, 0.25),
          1e3 * n / busy, cpu / n};
}

Timing raw_timing(const Loop& l) {
  return timing(l, std::vector<double>(l.lat_ms.size(), 1.0));
}

// The host drifts between speed states that hold for seconds and differ
// by up to 1.6x (host.h), so raw times of one run land in whichever state
// held it.  Each op's times are scaled by kRefNominalUs over its window's
// median reference call: the time the op would have taken at the
// reference speed.
Timing scaled_timing(const Loop& l) {
  std::vector<double> scale(l.lat_ms.size());
  std::size_t begin = 0;
  for (const std::size_t end : l.cut) {
    const auto b = static_cast<long>(begin), e = static_cast<long>(end);
    const double s = kRefNominalUs / median({l.ref_us.begin() + b,
                                             l.ref_us.begin() + e});
    std::fill(scale.begin() + b, scale.begin() + e, s);
    begin = end;
  }
  return timing(l, scale);
}

struct Metric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order.  A workload that
// does not run a layer reports 0 for it.
const Metric kLayerMetrics[] = {
    {"serve.round_trip_us", "us"},
    {"serve.daemon_overhead_us", "us"},
    {"serve.json_us", "us"},
    {"registry.adopt_us", "us"},
    {"registry.publish_us", "us"},
    {"registry.hit_frac", "frac"},
    {"registry.memo_hit_frac", "frac"},
    {"registry.bytes", "bytes"},
    {"deck.run_us", "us"},
    {"deck.unattributed_frac", "frac"},
    {"spicefmt.parse_us", "us"},
    {"spicefmt.parse_mb_per_s", "MB/s"},
    {"circuit.assign_unknowns_us", "us"},
    {"circuit.lint_us", "us"},
    {"circuit.lint_value_us", "us"},
    {"analysis.structural_us", "us"},
    {"analysis.range_us", "us"},
    {"op.solve_us", "us"},
    {"op.newton_iters", "count"},
    {"op.factor_count", "count"},
    {"op.stamp_us", "us"},
    {"op.factor_us", "us"},
    {"op.phase_solve_us", "us"},
    {"ac.solve_us", "us"},
    {"ac.points", "count"},
    {"report.op_report_us", "us"},
    {"mc.build_us", "us"},
    {"mc.measure_us", "us"},
    {"mc.adopt_frac", "frac"},
    {"core.rig_build_us", "us"},
    {"numeric.pattern_searches_per_op", "count"},
    {"numeric.factor_calls_per_op", "count"},
    {"pss.run_us", "us"},
    {"pss.periods_integrated", "count"},
    {"pss.shooting_iterations", "count"},
    {"pss.phi_solves", "count"},
    {"pss.phi_us", "us"},
    {"tran.accepted_steps", "count"},
    {"tran.newton_iters", "count"},
    {"tran.factor_count", "count"},
    {"tran.reuse_count", "count"},
    {"tran.stamp_us", "us"},
    {"tran.factor_us", "us"},
    {"tran.solve_us", "us"},
    {"signal.harmonics_us", "us"},
    {"host.ref_us", "us"},
    {"trace.overhead_frac", "frac"},
};

// Times, rates and ratios reduce by median, counts by mean.
bool reduces_by_median(const std::string& name) {
  auto ends = [&](const char* suf) {
    const std::size_t n = std::strlen(suf);
    return name.size() >= n && name.compare(name.size() - n, n, suf) == 0;
  };
  return ends("_us") || ends("_per_s") || ends("_frac");
}

void print_metric(bool& first, const char* name, double value,
                  const char* unit) {
  std::printf("%s\"%s\":{\"value\":%.10g,\"unit\":\"%s\"}", first ? "" : ",",
              name, value, unit);
  first = false;
}

int run(const Args& a) {
  auto w = make_workload(a.workload);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  const int cpu = pin_to_current_cpu();
  const std::string load_start = loadavg_json();

  // Inputs (and the tone-thd settle oracle) before any clock starts.
  w->prepare(a.seed);

  // Set-up, scaled to the reference speed like the op timings.
  const double ref_start = host_ref_us(kSetupRefCalls);
  const auto s0 = now_ns();
  w->setup();
  const double setup_raw_s = static_cast<double>(now_ns() - s0) / 1e9;
  const double ref_setup = host_ref_us(kSetupRefCalls);
  const double setup_s =
      setup_raw_s * kRefNominalUs / (0.5 * (ref_start + ref_setup));
  if (a.setup_only) {
    w->teardown();
    std::printf("{\"setup_s\":%.10g}\n", setup_s);
    return 0;
  }
  const int threads = process_threads();

  const double plain_s = a.trace ? a.seconds / 2.0 : a.seconds;
  const Loop plain = run_loop(*w, 0, plain_s, nullptr, nullptr);
  Trace trace;
  Samples samples;
  Loop traced;
  if (a.trace) {
    traced = run_loop(*w, plain.lat_ms.size(), a.seconds / 2.0, &trace,
                      &samples);
    w->final_samples(samples);
  }
  const std::size_t attempted = plain.lat_ms.size() + traced.lat_ms.size();
  const std::size_t failed = w->check(attempted);
  w->teardown();
  const double ref_end = host_ref_us(kSetupRefCalls);
  const std::string load_end = loadavg_json();

  const Timing scaled = scaled_timing(plain);
  const Timing raw = raw_timing(plain);
  const char* env_threads = std::getenv("MSIM_THREADS");
  std::printf(
      "{\"host\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"nproc\":%u,\"cpu\":%d,\"loadavg_start\":%s,"
      "\"loadavg_end\":%s,\"threads\":%s,\"process_threads\":%d,"
      "\"msim_threads_env\":\"%s\",\"host_ref_us_start\":%.6g,"
      "\"host_ref_us_end\":%.6g,\"ref_us_loop_p50\":%.6g,\"windows\":%zu,"
      "\"setup_raw_s\":%.6g,\"raw_p50_ms\":%.6g,\"raw_p95_ms\":%.6g,"
      "\"raw_ops_per_s\":%.6g}}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace, std::thread::hardware_concurrency(), cpu, load_start.c_str(),
      load_end.c_str(), w->threads_json().c_str(), threads,
      env_threads ? env_threads : "", ref_start, ref_end,
      median(plain.ref_us), plain.cut.size(), setup_raw_s, raw.p50_ms,
      raw.p95_ms, raw.ops_per_s);

  const double ops = static_cast<double>(attempted);
  bool first = true;
  if (!a.trace) {
    std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,"
                "\"metrics\":{",
                failed == 0 ? "true" : "false", attempted, failed);
    print_metric(first, "op_p50_ms", scaled.p50_ms, "ms");
    print_metric(first, "op_p95_ms", scaled.p95_ms, "ms");
    print_metric(first, "ops_per_s", scaled.ops_per_s, "1/s");
    print_metric(first, "cpu_ms_per_op", scaled.cpu_ms_per_op, "ms");
    print_metric(first, "setup_s", setup_s, "s");
    print_metric(first, "peak_rss_mb", peak_rss_mb(), "MB");
    print_metric(first, "success_frac",
                 (ops - static_cast<double>(failed)) / ops, "frac");
    std::printf("}}\n");
    return 0;
  }

  // Span summary (not part of the result), then the per-layer metrics.
  const auto spans = trace.by_name();
  std::printf("{\"spans\":{");
  for (const auto& [name, st] : spans) {
    std::printf("%s\"%s\":{\"calls\":%zu,\"inclusive_us_p50\":%.6g,"
                "\"self_us_p50\":%.6g}",
                first ? "" : ",", name.c_str(), st.inclusive_us.size(),
                median(st.inclusive_us), median(st.self_us));
    first = false;
  }
  std::printf("}}\n");

  std::map<std::string, double> layer;
  for (const auto& [name, st] : spans)
    layer[name + "_us"] = median(st.inclusive_us);
  for (const auto& [name, v] : samples.all())
    layer[name] = reduces_by_median(name) ? median(v) : mean(v);
  layer["host.ref_us"] = 0.5 * (ref_start + ref_end);
  layer["trace.overhead_frac"] =
      scaled_timing(traced).p50_ms / scaled.p50_ms - 1.0;

  first = true;
  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,"
              "\"metrics\":{",
              failed == 0 ? "true" : "false", attempted, failed);
  for (const Metric& m : kLayerMetrics) {
    const auto it = layer.find(m.name);
    print_metric(first, m.name, it == layer.end() ? 0.0 : it->second,
                 m.unit);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 | --setup-only\n");
    return 2;
  }
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
