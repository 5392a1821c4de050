// E12 - engine performance harness.
//
// Runs the timed end-to-end comparison of the linear-solver
// engines on the paper's workhorse experiment -- a 200-sample mic-amp
// gain-accuracy Monte-Carlo -- plus a full AC grid, and writes the
// results as BENCH_engine.json (path = argv[1], default ./BENCH_engine
// .json).  Reported per configuration: wall time, linear solves per
// second, and speedup vs. the dense-serial baseline.  The harness also
// asserts the parallel determinism contract: the Monte-Carlo statistics
// must be bit-identical at 1, 2 and 8 threads.  The assembly_configs
// section micro-benchmarks sparse re-assembly under the searched /
// slot-cached / batched modes and gates on the slot modes replaying
// with zero pattern binary searches.  The pss_configs section measures
// one THD point by shooting periodic steady state against the
// doubling-verified settle oracle (periods integrated, wall time, THD
// agreement) and gates on the two estimates agreeing;
// tools/bench_compare.py --pss-threshold additionally gates the
// period_ratio.  The cold_path section times the fixed costs of a cold
// solve (symbolic analysis, value-range pass and the first solve after
// it, RealSystem::init) on the
// mic amp, the class-AB buffer and the chip; it carries no gate.
//
//   --smoke          shrink every scenario (sample counts, repeats,
//                    transient spans) so the whole harness plus all of
//                    its correctness gates finishes in seconds; used by
//                    the bench_smoke ctest.
//   --mc-samples N   override the ensemble sections' sample counts.
//   --threads N      ensemble worker threads (default 8).
// Any other argument starting with '-' prints usage and exits 2.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "analysis/ac.h"
#include "analysis/mna.h"
#include "analysis/montecarlo.h"
#include "analysis/range.h"
#include "analysis/structural.h"
#include "analysis/op.h"
#include "analysis/pss.h"
#include "analysis/transient.h"
#include "bench_util.h"
#include "circuit/netlist.h"
#include "core/budget.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "numeric/rng.h"
#include "numeric/sparse.h"
#include "process/process.h"
#include "serve/deck.h"
#include "serve/registry.h"
#include "spicefmt/writer.h"

namespace {

using namespace msim;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

// ------------------------------------------------------------ timed runs

struct McRun {
  std::string name;
  double wall_ms = 0.0;
  long solves = 0;  // linear factor+solve count (Newton iters + AC points)
  an::McStats stats;
};

// Times one Monte-Carlo scenario through monte_carlo_shared, best of
// `repeats`: sample 0 primes the solver cache (sparse pattern, symbolic
// LU, stamp slots) and every later sample adopts it after one
// fingerprint comparison -- the structural hoist is the driver's job,
// not the trial lambda's.  `measure` adds the linear solves it ran to
// the counter it is handed.
McRun time_mc(
    const std::string& name, int samples, std::uint64_t seed, int threads,
    int repeats, const std::function<void(num::Rng&, ckt::Netlist&)>& build,
    const std::function<an::McTrial(ckt::Netlist&, std::atomic<long>&)>&
        measure) {
  McRun run;
  run.name = name;
  run.wall_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < repeats; ++rep) {
    num::Rng rng(seed);
    std::atomic<long> solves{0};
    an::McOptions mo;
    mo.threads = threads;
    const auto t0 = Clock::now();
    auto stats = an::monte_carlo_shared(
        samples, rng, build,
        [&](ckt::Netlist& nl) { return measure(nl, solves); }, mo);
    const double wall = ms_since(t0);
    if (wall < run.wall_ms) run.wall_ms = wall;  // best of `repeats`
    run.solves = solves.load();
    run.stats = std::move(stats);
  }
  return run;
}

// The mic-amp gain-accuracy Monte-Carlo from the paper's Table 1 row
// (dAcl): perturb both resistor strings with the process mismatch sigma,
// re-solve OP + one AC point, measure the closed-loop gain in dB.
McRun run_mc(const std::string& name, int samples, an::SolverKind solver,
             int threads, int repeats) {
  const auto pm = proc::ProcessModel::cmos12();
  // Node ids are topology-stable across rebuilds (identical build
  // order), so the measure lambda can reuse the nominal rig's outputs.
  auto nominal = bench::make_mic_rig();
  const auto outp = nominal->mic.outp;
  const auto outn = nominal->mic.outn;
  return time_mc(
      name, samples, 77, threads, repeats,
      [&](num::Rng& srng, ckt::Netlist& nl) {
        auto parts = bench::build_mic_into(nl);
        bench::perturb_mic_strings(parts.mic, pm, srng);
        parts.mic.set_gain_code(5);
      },
      [&](ckt::Netlist& nl, std::atomic<long>& solves) {
        an::OpOptions oo;
        oo.solver = solver;
        const auto op = an::solve_op(nl, oo);
        if (!op.converged) return an::McTrial::failed(op.diag);
        solves.fetch_add(op.iterations, std::memory_order_relaxed);
        an::AcOptions ao;
        ao.solver = solver;
        const auto ac = an::run_ac(nl, {1e3}, ao);
        solves.fetch_add(1, std::memory_order_relaxed);
        return an::McTrial::of(
            an::to_db(std::abs(ac.vdiff(0, outp, outn))));
      });
}

// Chip-scale Monte-Carlo: the full transistor-level front end (~170
// unknowns), every resistor on the die perturbed by the process
// mismatch sigma, one operating point per sample, measuring the total
// quiescent supply current.  This is the regime the sparse engine is
// built for: dense LU is O(n^3) per Newton iteration while the chip
// Jacobian carries only a handful of entries per row.
McRun run_chip_mc(const std::string& name, int samples,
                  an::SolverKind solver, int threads, int repeats) {
  const auto pm = proc::ProcessModel::cmos12();
  // Branch unknowns are topology-stable too: capture the positive
  // rail's branch index once from a nominal build (branch bases only
  // exist after unknown assignment).
  auto nominal = bench::make_chip_rig();
  nominal->nl.assign_unknowns();
  const auto iq_idx =
      static_cast<std::size_t>(nominal->vdd_src->branch_base());
  return time_mc(
      name, samples, 123, threads, repeats,
      [&](num::Rng& srng, ckt::Netlist& nl) {
        (void)bench::build_chip_into(nl);
        for (const auto& d : nl.devices())
          if (auto* res = dynamic_cast<dev::Resistor*>(d.get()))
            res->apply_relative_error(pm.sample_resistor_mismatch(srng));
      },
      [&](ckt::Netlist& nl, std::atomic<long>& solves) {
        an::OpOptions oo;
        oo.solver = solver;
        const auto op = an::solve_op(nl, oo);
        if (!op.converged) return an::McTrial::failed(op.diag);
        solves.fetch_add(op.iterations, std::memory_order_relaxed);
        // Total quiescent current drawn from the positive rail.
        return an::McTrial::of(op.x[iq_idx]);
      });
}

struct AcRun {
  std::string name;
  double wall_ms = 0.0;
  std::size_t points = 0;
};

AcRun run_ac_grid(const std::string& name, bench::MicRig& rig,
                  const std::vector<double>& freqs, an::SolverKind solver,
                  int threads, int repeats) {
  AcRun run;
  run.name = name;
  run.points = freqs.size();
  run.wall_ms = std::numeric_limits<double>::infinity();
  an::AcOptions ao;
  ao.solver = solver;
  ao.threads = threads;
  for (int rep = 0; rep < repeats; ++rep) {
    const auto t0 = Clock::now();
    const auto r = an::run_ac(rig.nl, freqs, ao);
    const double wall = ms_since(t0);
    if (r.solutions.size() != freqs.size()) {
      std::fprintf(stderr, "ac grid '%s' incomplete\n", name.c_str());
      std::exit(1);
    }
    if (wall < run.wall_ms) run.wall_ms = wall;
  }
  return run;
}

// Cost of the mandatory structural pre-pass (lint + structural-rank
// matching) relative to a whole MC scenario.  The first solve on a
// topology pays the full analysis; every later sample that adopts the
// nominal solver cache re-validates with one fingerprint comparison.
struct PrepassRun {
  std::string name;
  double cold_ms = 0.0;    // one uncached full lint + structural run
  double cached_ms = 0.0;  // per-call cost with a warm verdict cache
  double added_fraction = 0.0;  // share of the MC scenario wall time
};

PrepassRun run_prepass(const std::string& name, ckt::Netlist& nl,
                       int samples, double scenario_wall_ms) {
  PrepassRun run;
  run.name = name;

  an::PreflightOptions cold;
  cold.use_cache = false;
  run.cold_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    if (!an::preflight(nl, cold).ok()) {
      std::fprintf(stderr, "prepass '%s': nominal rig failed lint\n",
                   name.c_str());
      std::exit(1);
    }
    run.cold_ms = std::min(run.cold_ms, ms_since(t0));
  }

  (void)an::preflight(nl);  // warm the verdict cache
  constexpr int kCalls = 1000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kCalls; ++i) (void)an::preflight(nl);
  run.cached_ms = ms_since(t0) / kCalls;

  // The MC scenario pays one cold run (the nominal build) plus a cached
  // re-validation per adopted sample.
  run.added_fraction =
      (run.cold_ms + run.cached_ms * (samples - 1)) / scenario_wall_ms;
  return run;
}

// Cost of the value-range interval pre-pass in isolation.  The armed
// lint passes already ride the preflight verdict cache (measured by
// run_prepass above); this row prices the raw interval fixed point +
// conditioning forecast, paid once per topology by the nominal solve.
struct RangePrepassRun {
  std::string name;
  double analysis_ms = 0.0;     // one full range_analysis call
  double added_fraction = 0.0;  // share of the MC scenario wall time
};

RangePrepassRun run_range_prepass(const std::string& name,
                                  ckt::Netlist& nl,
                                  double scenario_wall_ms) {
  RangePrepassRun run;
  run.name = name;
  nl.assign_unknowns();
  run.analysis_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    const auto rr = an::range_analysis(nl);
    if (rr.unknowns == 0 || !rr.rail_violations.empty()) {
      std::fprintf(stderr, "range prepass '%s': rig failed the pass\n",
                   name.c_str());
      std::exit(1);
    }
    run.analysis_ms = std::min(run.analysis_ms, ms_since(t0));
  }
  run.added_fraction = run.analysis_ms / scenario_wall_ms;
  return run;
}

// ------------------------------------------------------------ cold path

// The fixed costs of a cold solve, one row per matrix: `analyze` is a
// fresh SparseLu's first factor of the matrix (the Markowitz analysis,
// its compiled elimination program and one numeric refactor); `range`
// is range_analysis on a netlist fresh from its build, which builds the
// CSR skeleton and records the DC slot tables that the first solve then
// replays; `first_op` is that solve (solve_op without its lint, on the
// netlist the range pass just ran on); `init` is RealSystem::init on a
// netlist whose skeleton is cached.  Each is timed once per repeat on
// one thread; the rows give median, min and interquartile range in
// microseconds.
struct Spread {
  double median = 0.0, min = 0.0, iqr = 0.0;
};

Spread spread_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    const double i = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(i);
    const double f = i - static_cast<double>(lo);
    return lo + 1 < v.size() ? v[lo] * (1.0 - f) + v[lo + 1] * f : v[lo];
  };
  return {at(0.5), v.front(), at(0.75) - at(0.25)};
}

struct ColdPathRun {
  std::string name;
  int repeats = 0;
  int unknowns = 0, nnz = 0, factor_nnz = 0;
  Spread analyze_us, range_us, first_op_us, init_us;
};

// `build` returns a fresh netlist of the rig (unknowns not assigned);
// the matrix is its Jacobian at `x_at_op` ? the operating point : 0, in
// `mode`.
ColdPathRun run_cold_path(
    const std::string& name, int repeats, ckt::AnalysisMode mode,
    bool x_at_op,
    const std::function<std::shared_ptr<ckt::Netlist>()>& build) {
  const auto us_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
  };
  ColdPathRun run;
  run.name = name;
  run.repeats = repeats;
  const auto nl = build();
  nl->assign_unknowns();
  num::RealVector x(static_cast<std::size_t>(nl->unknown_count()), 0.0);
  an::AssembleParams p;
  p.mode = mode;
  if (x_at_op) {
    const auto op = an::solve_op(*nl);
    if (!op.converged) {
      std::fprintf(stderr, "cold path '%s': OP failed\n", name.c_str());
      std::exit(1);
    }
    x = op.x;
  }
  if (mode == ckt::AnalysisMode::kTransient) {
    p.dt = 1e-6;
    for (const auto& d : nl->devices()) d->begin_transient(x);
  }
  an::RealSystem sys;
  sys.init(*nl, an::SolverKind::kSparse);
  sys.assemble(*nl, x, p);
  const num::RealSparseMatrix& jac = sys.sparse_jac();
  run.unknowns = jac.rows();
  run.nnz = jac.nnz();
  // Each cost in its own loop, so one's working set does not evict
  // another's; the range pass's netlists are all built first.
  std::vector<double> analyze, range, first_op, init;
  for (int rep = 0; rep < repeats; ++rep) {
    num::RealSparseLu lu;
    const auto t0 = Clock::now();
    lu.factor(jac);
    analyze.push_back(us_since(t0));
    run.factor_nnz = lu.factor_nnz();
    if (lu.singular()) {
      std::fprintf(stderr, "cold path '%s': singular\n", name.c_str());
      std::exit(1);
    }
  }
  for (int rep = 0; rep < repeats; ++rep) {
    an::RealSystem fresh;
    const auto t0 = Clock::now();
    fresh.init(*nl, an::SolverKind::kSparse);
    init.push_back(us_since(t0));
  }
  std::vector<std::shared_ptr<ckt::Netlist>> fresh(
      static_cast<std::size_t>(repeats));
  for (auto& f : fresh) {
    f = build();
    f->assign_unknowns();
  }
  an::OpOptions no_lint;
  no_lint.lint = false;
  for (const auto& f : fresh) {
    auto t0 = Clock::now();
    const auto rr = an::range_analysis(*f);
    range.push_back(us_since(t0));
    t0 = Clock::now();
    const bool converged = an::solve_op(*f, no_lint).converged;
    first_op.push_back(us_since(t0));
    if (rr.unknowns == 0 || !converged) {
      std::fprintf(stderr, "cold path '%s': range pass or OP failed\n",
                   name.c_str());
      std::exit(1);
    }
  }
  run.analyze_us = spread_of(analyze);
  run.range_us = spread_of(range);
  run.first_op_us = spread_of(first_op);
  run.init_us = spread_of(init);
  return run;
}

// Shares ownership of a rig through its netlist.
template <typename Rig>
std::shared_ptr<ckt::Netlist> netlist_of(std::unique_ptr<Rig> rig) {
  std::shared_ptr<Rig> owner = std::move(rig);
  return std::shared_ptr<ckt::Netlist>(owner, &owner->nl);
}

// ------------------------------------------------- transient fast path

// One timed transient case, run twice: full Newton (factor every
// iteration, fast path off) vs. the default policy (modified-Newton
// factorization reuse + linear fast path).  Only the run_transient call
// is timed; rig construction and the initial OP stay outside.
struct TranOnce {
  an::TranResult res;
  double tran_ms = 0.0;
  std::vector<double> wave;  // compared across policies (linear rows)
};

struct TranRun {
  std::string name;
  double wall_ms = 0.0;  // default options
  long factor_count = 0;
  long reuse_count = 0;
  long newton_iterations = 0;
  bool linear_fast_path = false;
  // Solver wall-time breakdown of the default run (TranTelemetry).
  long stamp_ns = 0;
  long factor_ns = 0;
  long solve_ns = 0;
  // A/B baseline, timed only when the default run takes the linear
  // fast path: the same circuit with the fast path off (full Newton,
  // a factorization per iteration).  Nonlinear rows have no second
  // policy to compare against.
  double full_ms = 0.0;
  long full_factors = 0;
  bool agree = true;  // fast-path and full-Newton waveforms match
  double speedup() const { return full_ms / wall_ms; }
};

// Best-of-`repeats` timing of once(true) (default options); rows on the
// linear fast path also time once(false) with the fast path off.
TranRun run_tran(const std::string& name, int repeats,
                 const std::function<TranOnce(bool fast)>& once) {
  TranRun run;
  run.name = name;
  run.wall_ms = std::numeric_limits<double>::infinity();
  run.full_ms = std::numeric_limits<double>::infinity();
  std::vector<double> wf, wm;
  auto timed = [&](bool fast) {
    auto o = once(fast);
    if (!o.res.ok) {
      std::fprintf(stderr, "transient '%s' (%s) failed\n", name.c_str(),
                   fast ? "default" : "full Newton");
      std::exit(1);
    }
    return o;
  };
  for (int rep = 0; rep < repeats; ++rep) {
    auto fast = timed(true);
    const an::TranTelemetry& tel = fast.res.telemetry;
    run.linear_fast_path = tel.linear_fast_path_used;
    if (fast.tran_ms < run.wall_ms) {
      run.wall_ms = fast.tran_ms;
      run.factor_count = tel.factor_count;
      run.reuse_count = tel.reuse_count;
      run.newton_iterations = tel.newton_iterations;
      run.stamp_ns = tel.stamp_ns;
      run.factor_ns = tel.factor_ns;
      run.solve_ns = tel.solve_ns;
      wm = std::move(fast.wave);
    }
    if (!run.linear_fast_path) continue;
    auto full = timed(false);
    if (full.tran_ms < run.full_ms) {
      run.full_ms = full.tran_ms;
      run.full_factors = full.res.telemetry.factor_count;
      wf = std::move(full.wave);
    }
  }
  if (run.linear_fast_path) {
    double maxd = std::numeric_limits<double>::infinity();
    if (wf.size() == wm.size() && !wf.empty()) {
      maxd = 0.0;
      for (std::size_t i = 0; i < wf.size(); ++i)
        maxd = std::max(maxd, std::abs(wf[i] - wm[i]));
    }
    run.agree = maxd < 1e-4;
  }
  return run;
}

// ------------------------------------------------- PSS vs verified settle
//
// One THD point by shooting periodic steady state vs the settle-and-
// record transient oracle.  The oracle has no periodicity certificate,
// so a blind measurement must prove its own convergence: run the legacy
// settle depth (2 discarded periods + 3 recorded), double the depth,
// and accept once two consecutive estimates agree within the gate
// tolerance -- every integrated period of every round counts toward
// its cost.  Shooting PSS carries the certificate internally (the
// boundary residual ||x(0) - x(T)||), so its cost is a quarter-period
// pre-roll plus one period per shot, and it records exactly one coherent
// period.
struct PssRun {
  std::string name;
  double f0 = 1e3;
  double settle_thd = 0.0;
  double pss_thd = 0.0;
  double settle_periods = 0.0;  // cumulative over all oracle rounds
  double pss_periods = 0.0;     // PssTelemetry::periods_integrated
  double settle_ms = 0.0;
  double pss_ms = 0.0;
  int settle_rounds = 0;
  int shooting_iterations = 0;
  long phi_solves = 0;  // PssTelemetry::phi_solve_count
  double residual = 0.0;
  bool ok = false;
  bool agree = false;
  double period_ratio() const {
    return pss_periods > 0.0 ? settle_periods / pss_periods : 0.0;
  }
  double rel_err() const {
    return settle_thd > 0.0 ? std::abs(pss_thd - settle_thd) / settle_thd
                            : 0.0;
  }
  double speedup() const {
    return pss_ms > 0.0 ? settle_ms / pss_ms : 0.0;
  }
};

PssRun run_pss(
    const std::string& name, double f0, double dt, double agree_tol,
    int repeats,
    const std::function<std::pair<ckt::NodeId, ckt::NodeId>(ckt::Netlist&)>&
        make) {
  PssRun run;
  run.name = name;
  run.f0 = f0;
  run.settle_ms = std::numeric_limits<double>::infinity();
  run.pss_ms = std::numeric_limits<double>::infinity();
  const auto plan = sig::plan_coherent_capture(f0, dt);

  for (int rep = 0; rep < repeats; ++rep) {
    // Doubling-verified settle oracle.
    double ms = 0.0, periods = 0.0, thd = -1.0, prev = -1.0;
    int rounds = 0;
    for (double s = 2.0; s <= 32.0; s *= 2.0) {
      ckt::Netlist nl;
      const auto [outp, outn] = make(nl);
      an::TranOptions t;
      t.dt = plan.dt;
      t.record_after = s / f0;
      t.t_stop = (s + 3.0) / f0;
      const auto t0 = Clock::now();
      const auto tr = an::run_transient(nl, t);
      ms += ms_since(t0);
      if (!tr.ok) {
        std::fprintf(stderr, "pss '%s': settle oracle failed: %s\n",
                     name.c_str(), tr.diag.message().c_str());
        return run;
      }
      auto w = tr.diff_wave(outp, outn);
      // Exact-integer-period window: the recorded span is one sample
      // longer than 3 periods (fence-post), which would leak the
      // fundamental into the harmonic bins at the 1e-5 level.
      const std::size_t n3 = 3u * static_cast<std::size_t>(
                                      plan.samples_per_period);
      if (w.size() > n3) w.resize(n3);
      thd = sig::measure_harmonics(w, t.dt, f0).thd;
      periods += s + 3.0;
      ++rounds;
      if (prev >= 0.0 &&
          std::abs(thd - prev) <= agree_tol * std::max(thd, prev))
        break;
      prev = thd;
    }
    if (ms < run.settle_ms) {
      run.settle_ms = ms;
      run.settle_thd = thd;
      run.settle_periods = periods;
      run.settle_rounds = rounds;
    }

    // Shooting PSS: one certified point, default options (a quarter-
    // period pre-roll ending at phase 0; the boundary Newton handles
    // whatever transient remains).
    ckt::Netlist nl;
    const auto [outp, outn] = make(nl);
    an::PssOptions o;
    o.tran.dt = dt;
    const auto t0 = Clock::now();
    const auto r = an::run_pss_shooting(nl, o);
    const double pss_ms = ms_since(t0);
    if (!r.ok) {
      std::fprintf(stderr, "pss '%s': shooting failed: %s\n", name.c_str(),
                   r.diag.message().c_str());
      return run;
    }
    if (pss_ms < run.pss_ms) {
      run.pss_ms = pss_ms;
      run.pss_thd = r.harmonics(r.diff_wave(outp, outn)).thd;
      run.pss_periods = r.telemetry.periods_integrated;
      run.shooting_iterations = r.telemetry.shooting_iterations;
      run.phi_solves = r.telemetry.phi_solve_count;
      run.residual = r.telemetry.residual;
    }
  }
  run.ok = true;
  run.agree = run.rel_err() <= agree_tol;
  return run;
}

// ------------------------------------------------- assembly micro-bench
//
// Repeated full re-assembly of the sparse Newton system -- exactly what
// every accepted transient step pays (invalidate_base + assemble) --
// under the three assembly modes:
//   searched     legacy path: every jac write binary-searches the CSR
//                row (set_assembly_modes(false, false))
//   slot-cached  cached value-index replay, per-device virtual stamp
//   batched      slot replay + devirtualized per-class device loops
// `lookups` counts pattern binary searches per assembly (via
// num::sparse_search_count()); the slot modes must replay at zero.
struct AsmRun {
  std::string name;
  int unknowns = 0;
  int iters = 0;
  double searched_ms = 0.0;
  double slot_ms = 0.0;
  double batched_ms = 0.0;
  long searched_lookups = 0;  // per assembly
  long slot_lookups = 0;
  long batched_lookups = 0;
  double slot_speedup() const { return searched_ms / slot_ms; }
  double batched_speedup() const { return searched_ms / batched_ms; }
};

AsmRun run_assembly(const std::string& name, ckt::Netlist& nl, int iters,
                    int repeats) {
  an::OpOptions oo;
  const auto op = an::solve_op(nl, oo);
  if (!op.converged) {
    std::fprintf(stderr, "assembly '%s': operating point failed\n",
                 name.c_str());
    std::exit(1);
  }
  // Transient-mode params: reactive companions stamp too, matching the
  // hot path the slot cache is built for.
  an::AssembleParams p;
  p.mode = ckt::AnalysisMode::kTransient;
  p.dt = 1e-6;

  AsmRun run;
  run.name = name;
  run.unknowns = static_cast<int>(op.x.size());
  run.iters = iters;

  an::RealSystem sys;
  const auto time_mode = [&](bool slots, bool batches, long* lookups) {
    sys.init(nl, an::SolverKind::kSparse);
    sys.set_assembly_modes(slots, batches);
    // Warm-up assembly: records the slot tables / rebuilds the base
    // image (the one-time cost an application pays per topology).
    sys.invalidate_base();
    sys.assemble(nl, op.x, p);
    const long s0 = num::sparse_search_count();
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) {
      sys.invalidate_base();  // what every accepted tran step does
      sys.assemble(nl, op.x, p);
    }
    const double wall = ms_since(t0);
    *lookups = (num::sparse_search_count() - s0) / iters;
    return wall;
  };

  run.searched_ms = std::numeric_limits<double>::infinity();
  run.slot_ms = std::numeric_limits<double>::infinity();
  run.batched_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < repeats; ++rep) {
    run.searched_ms = std::min(
        run.searched_ms, time_mode(false, false, &run.searched_lookups));
    run.slot_ms =
        std::min(run.slot_ms, time_mode(true, false, &run.slot_lookups));
    run.batched_ms = std::min(run.batched_ms,
                              time_mode(true, true, &run.batched_lookups));
  }
  return run;
}

bool stats_identical(const an::McStats& a, const an::McStats& b) {
  return a.samples == b.samples && a.failures == b.failures &&
         a.mean() == b.mean() && a.stddev() == b.stddev() &&
         a.min() == b.min() && a.max() == b.max();
}

// Physical agreement between engines, to a relative tolerance (pivot
// order differs, so bitwise equality is not expected).
bool stats_agree(const an::McStats& a, const an::McStats& b, double rtol) {
  const auto close = [rtol](double u, double v) {
    return std::abs(u - v) <=
           rtol * std::max({std::abs(u), std::abs(v), 1e-30});
  };
  return close(a.mean(), b.mean()) && close(a.stddev(), b.stddev());
}

// --------------------------------------------- ensemble transient MC

// One MC-transient scenario run either as the per-sample baseline
// (lane_width 0: run_transient_sweep, sample 0's structure shared) or
// through run_transient_ensemble's lockstep SoA engine.  The
// metric is a per-sample scalar pulled from each recorded waveform so
// the two modes can be checked for numerical agreement sample by
// sample, not just in aggregate.
struct EnsRun {
  std::string name;
  double wall_ms = std::numeric_limits<double>::infinity();
  int samples = 0;
  int threads = 1;
  int lane_width = 0;
  bool used_ensemble = false;
  long splits = 0;
  long rejoins = 0;
  double samples_per_sec = 0.0;
  std::vector<double> finals;  // per-sample metric, index-stable
  bool all_ok = true;
};

EnsRun run_ens(
    const std::string& name, int samples, int threads, int lane_width,
    int repeats,
    const std::function<void(std::size_t, ckt::Netlist&,
                             an::TranOptions&)>& configure,
    const std::function<double(const an::TranResult&)>& metric) {
  EnsRun run;
  run.name = name;
  run.samples = samples;
  run.threads = threads;
  run.lane_width = lane_width;
  for (int rep = 0; rep < repeats; ++rep) {
    const auto n = static_cast<std::size_t>(samples);
    an::TranEnsembleResult res;
    const auto t0 = Clock::now();
    if (lane_width == 0) {
      an::TranSweepOptions so;
      so.threads = threads;
      res.results = an::run_transient_sweep(n, configure, so);
    } else {
      an::TranEnsembleOptions eo;
      eo.threads = threads;
      eo.lane_width = lane_width;
      res = an::run_transient_ensemble(n, configure, eo);
    }
    const double wall = ms_since(t0);
    if (wall < run.wall_ms) {
      run.wall_ms = wall;
      run.used_ensemble = res.ensemble.used_ensemble;
      run.splits = res.ensemble.cohort_splits;
      run.rejoins = res.ensemble.cohort_rejoins;
      run.finals.clear();
      run.all_ok = true;
      for (const auto& r : res.results) {
        run.all_ok = run.all_ok && r.ok;
        run.finals.push_back(
            r.ok ? metric(r) : std::numeric_limits<double>::quiet_NaN());
      }
    }
  }
  run.samples_per_sec =
      1e3 * static_cast<double>(samples) / run.wall_ms;  // best-of
  return run;
}

// Per-sample numerical agreement between two modes of the same scenario
// (NaN from a failed sample never agrees).
bool finals_agree(const EnsRun& a, const EnsRun& b, double atol) {
  if (a.finals.size() != b.finals.size() || a.finals.empty()) return false;
  for (std::size_t i = 0; i < a.finals.size(); ++i)
    if (!(std::abs(a.finals[i] - b.finals[i]) <= atol)) return false;
  return true;
}

// ---------------------------------------------------------- JSON output

void json_mc(std::FILE* f, const McRun& r, const char* metric,
             double base_ms, bool last) {
  std::fprintf(
      f,
      "    {\"name\": \"%s\", \"metric\": \"%s\", \"wall_ms\": %.3f, "
      "\"solves\": %ld, "
      "\"solves_per_sec\": %.1f, \"samples_per_sec\": %.1f, "
      "\"speedup_vs_dense_serial\": %.3f, \"failures\": %d, "
      "\"mean\": %.17g, \"stddev\": %.17g, \"min\": %.17g, "
      "\"max\": %.17g}%s\n",
      r.name.c_str(), metric, r.wall_ms, r.solves,
      1e3 * static_cast<double>(r.solves) / r.wall_ms,
      1e3 * static_cast<double>(r.stats.samples.size()) / r.wall_ms,
      base_ms / r.wall_ms, r.stats.failures, r.stats.mean(),
      r.stats.stddev(), r.stats.min(), r.stats.max(), last ? "" : ",");
}

void json_ac(std::FILE* f, const AcRun& r, double base_ms, bool last) {
  std::fprintf(f,
               "    {\"name\": \"%s\", \"wall_ms\": %.3f, \"points\": %zu, "
               "\"solves_per_sec\": %.1f, "
               "\"speedup_vs_dense_serial\": %.3f}%s\n",
               r.name.c_str(), r.wall_ms, r.points,
               1e3 * static_cast<double>(r.points) / r.wall_ms,
               base_ms / r.wall_ms, last ? "" : ",");
}

void json_ens(std::FILE* f, const EnsRun& r, const EnsRun& base,
              bool agree, bool last) {
  std::fprintf(f,
               "    {\"name\": \"%s\", \"wall_ms\": %.3f, "
               "\"samples\": %d, \"threads\": %d, \"lane_width\": %d, "
               "\"samples_per_sec\": %.2f, \"used_ensemble\": %s, "
               "\"cohort_splits\": %ld, \"cohort_rejoins\": %ld, "
               "\"speedup_vs_per_sample\": %.3f, "
               "\"finals_agree\": %s}%s\n",
               r.name.c_str(), r.wall_ms, r.samples, r.threads,
               r.lane_width, r.samples_per_sec,
               r.used_ensemble ? "true" : "false", r.splits, r.rejoins,
               base.wall_ms / r.wall_ms, agree ? "true" : "false",
               last ? "" : ",");
}

void json_tran(std::FILE* f, const TranRun& r, bool last) {
  std::fprintf(f,
               "    {\"name\": \"%s\", \"wall_ms\": %.3f, "
               "\"factor_count\": %ld, \"reuse_count\": %ld, "
               "\"newton_iterations\": %ld, \"linear_fast_path\": %s, "
               "\"stamp_ns\": %ld, \"factor_ns\": %ld, "
               "\"solve_ns\": %ld",
               r.name.c_str(), r.wall_ms, r.factor_count, r.reuse_count,
               r.newton_iterations, r.linear_fast_path ? "true" : "false",
               r.stamp_ns, r.factor_ns, r.solve_ns);
  if (r.linear_fast_path)
    std::fprintf(f,
                 ", \"full_newton_ms\": %.3f, \"full_factor_count\": %ld, "
                 "\"speedup_vs_full_newton\": %.3f, "
                 "\"waveforms_agree\": %s",
                 r.full_ms, r.full_factors, r.speedup(),
                 r.agree ? "true" : "false");
  std::fprintf(f, "}%s\n", last ? "" : ",");
}

// One row per circuit x assembly mode, mirroring the mc_configs shape
// (bench_compare.py walks sections by name + wall_ms).  `lookups_per
// _assembly` is the pattern-binary-search count per full re-assembly;
// the slot modes must hold it at zero after warm-up.
void json_asm_mode(std::FILE* f, const AsmRun& r, const char* mode,
                   double wall_ms, long lookups, bool last) {
  std::fprintf(f,
               "    {\"name\": \"%s-%s\", \"unknowns\": %d, "
               "\"iters\": %d, \"wall_ms\": %.3f, "
               "\"assemblies_per_sec\": %.0f, "
               "\"lookups_per_assembly\": %ld, "
               "\"speedup_vs_searched\": %.3f}%s\n",
               r.name.c_str(), mode, r.unknowns, r.iters, wall_ms,
               1e3 * r.iters / wall_ms, lookups, r.searched_ms / wall_ms,
               last ? "" : ",");
}

void json_asm(std::FILE* f, const AsmRun& r, bool last) {
  json_asm_mode(f, r, "searched", r.searched_ms, r.searched_lookups,
                false);
  json_asm_mode(f, r, "slot", r.slot_ms, r.slot_lookups, false);
  json_asm_mode(f, r, "batched", r.batched_ms, r.batched_lookups, last);
}

// ------------------------------------------------------------- serving

// Sustained deck-service throughput: the same mixed op/AC/MC job stream
// run three ways.  `cold` is the historical one-shot CLI path (no
// registry: every job pays symbolic analysis and pattern searches);
// `warm-structure` shares a primed serve::CacheRegistry with the
// whole-result memo disabled (every job still solves, but adopts the
// shared symbolic + slot tables); `warm-memo` is the full service path
// (repeat jobs answered from the result memo).  bench_compare.py
// --serve-threshold gates warm-memo jobs/sec at >= 3x cold.
struct ServeJobSpec {
  std::string deck;
  serve::DeckOptions opt;
};

struct ServeRun {
  std::string name;
  double wall_ms = 1e300;
  int jobs = 0;
  long searches = 0;  // sparse pattern binary searches during the pass
  int warm_jobs = 0;  // jobs that adopted cached solver structure
  int memo_hits = 0;  // jobs answered verbatim from the result memo
  bool ok = true;     // every job exited 0
  double jobs_per_sec() const { return 1e3 * jobs / wall_ms; }
};

// Serializes the mic-amp rig at `gain_code` to SPICE deck text and
// splices the analysis directives in front of the writer's `.end`.
// Different gain codes toggle switch state only (same topology), so
// the whole mix shares one registry fingerprint -- the realistic PGA
// serving workload.
std::string serve_mic_deck(int gain_code, const char* directives) {
  auto rig = bench::make_mic_rig();
  rig->mic.set_gain_code(gain_code);
  std::string deck = spice::write_netlist(
      rig->nl, "serve mic-amp g" + std::to_string(gain_code));
  deck.insert(deck.rfind(".end"), directives);
  return deck;
}

// Drops the nondeterministic "solver time:" telemetry lines before
// byte comparison (same filter as tests/test_serve.cc).
std::string serve_strip_timing(const std::string& s) {
  std::string out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t nl = s.find('\n', pos);
    if (nl == std::string::npos) nl = s.size() - 1;
    const std::string line = s.substr(pos, nl - pos + 1);
    if (line.rfind("solver time:", 0) != 0) out += line;
    pos = nl + 1;
  }
  return out;
}

ServeRun run_serve_pass(const char* name,
                        const std::vector<ServeJobSpec>& stream,
                        serve::CacheRegistry* reg, bool use_memo,
                        int repeats) {
  ServeRun r;
  r.name = name;
  r.jobs = static_cast<int>(stream.size());
  for (int rep = 0; rep < repeats; ++rep) {
    const long s0 = num::sparse_search_count();
    int warm = 0, memo = 0;
    bool ok = true;
    const auto t0 = Clock::now();
    for (const auto& j : stream) {
      serve::DeckOptions o = j.opt;
      o.use_result_cache = use_memo;
      const auto res = serve::run_deck(j.deck, o, reg);
      ok = ok && res.exit_code == 0;
      warm += res.warm ? 1 : 0;
      memo += res.result_cached ? 1 : 0;
    }
    const double ms = ms_since(t0);
    r.ok = r.ok && ok;
    if (ms < r.wall_ms) {
      r.wall_ms = ms;
      r.searches = num::sparse_search_count() - s0;
      r.warm_jobs = warm;
      r.memo_hits = memo;
    }
  }
  return r;
}

int run_harness(const char* out_path, bool smoke, int mc_samples,
                int ens_threads) {
  // Smoke mode (bench_smoke ctest) shrinks every scenario so the whole
  // harness -- including all correctness gates -- finishes in seconds.
  const int kSamples = smoke ? 20 : 200;
  const int kRepeats = smoke ? 1 : 3;
  const int kChipSamples = smoke ? 2 : 20;
  const double tran_scale = smoke ? 0.2 : 1.0;

  std::printf("engine harness: %d-sample mic-amp gain-accuracy MC "
              "(best of %d)\n",
              kSamples, kRepeats);

  const auto dense = run_mc("dense-serial", kSamples,
                            an::SolverKind::kDense, 1, kRepeats);
  const auto sparse1 = run_mc("sparse-serial", kSamples,
                              an::SolverKind::kSparse, 1, kRepeats);
  const auto sparse2 = run_mc("sparse-2t", kSamples,
                              an::SolverKind::kSparse, 2, kRepeats);
  const auto sparse8 = run_mc("sparse-8t", kSamples,
                              an::SolverKind::kSparse, 8, kRepeats);

  for (const McRun* r : {&dense, &sparse1, &sparse2, &sparse8})
    std::printf("  %-14s %8.1f ms  %8.0f solves/s  speedup %5.2fx\n",
                r->name.c_str(), r->wall_ms,
                1e3 * static_cast<double>(r->solves) / r->wall_ms,
                dense.wall_ms / r->wall_ms);

  // Determinism contract: identical statistics at every thread count.
  const bool deterministic = stats_identical(sparse1.stats, sparse2.stats) &&
                             stats_identical(sparse1.stats, sparse8.stats);
  // The engines must agree physically (not bitwise: pivot order differs).
  const bool engines_agree =
      std::abs(dense.stats.mean() - sparse1.stats.mean()) < 1e-6 &&
      std::abs(dense.stats.stddev() - sparse1.stats.stddev()) < 1e-6;
  std::printf("  stats bit-identical across 1/2/8 threads: %s\n",
              deterministic ? "yes" : "NO");
  std::printf("  dense/sparse stats agree (<1e-6 dB): %s\n",
              engines_agree ? "yes" : "NO");

  // AC grid: 6 decades, 20 points/decade, on one nominal rig.
  auto rig = bench::make_mic_rig();
  {
    an::OpOptions oo;
    const auto op = an::solve_op(rig->nl, oo);
    if (!op.converged) {
      std::fprintf(stderr, "nominal mic-amp OP failed\n");
      return 1;
    }
  }
  const auto freqs = an::log_frequencies(10.0, 10e6, 20);
  const auto ac_dense = run_ac_grid("dense-serial", *rig, freqs,
                                    an::SolverKind::kDense, 1, kRepeats);
  const auto ac_sparse1 = run_ac_grid("sparse-serial", *rig, freqs,
                                      an::SolverKind::kSparse, 1, kRepeats);
  const auto ac_sparse8 = run_ac_grid("sparse-8t", *rig, freqs,
                                      an::SolverKind::kSparse, 8, kRepeats);
  std::printf("engine harness: AC grid, %zu points\n", freqs.size());
  for (const AcRun* r : {&ac_dense, &ac_sparse1, &ac_sparse8})
    std::printf("  %-14s %8.1f ms  %8.0f solves/s  speedup %5.2fx\n",
                r->name.c_str(), r->wall_ms,
                1e3 * static_cast<double>(r->points) / r->wall_ms,
                ac_dense.wall_ms / r->wall_ms);

  // Chip-scale MC: full front end, every resistor perturbed.  Dense is
  // ~O(n^3) per Newton iteration here, so one repeat is plenty for it.
  std::printf("engine harness: %d-sample full-chip quiescent-current MC\n",
              kChipSamples);
  const auto chip_dense = run_chip_mc("dense-serial", kChipSamples,
                                      an::SolverKind::kDense, 1, 1);
  const auto chip_sparse1 = run_chip_mc("sparse-serial", kChipSamples,
                                        an::SolverKind::kSparse, 1, 2);
  const auto chip_sparse8 = run_chip_mc("sparse-8t", kChipSamples,
                                        an::SolverKind::kSparse, 8, 2);
  for (const McRun* r : {&chip_dense, &chip_sparse1, &chip_sparse8})
    std::printf("  %-14s %8.1f ms  %8.0f solves/s  speedup %5.2fx\n",
                r->name.c_str(), r->wall_ms,
                1e3 * static_cast<double>(r->solves) / r->wall_ms,
                chip_dense.wall_ms / r->wall_ms);
  const bool chip_deterministic =
      stats_identical(chip_sparse1.stats, chip_sparse8.stats);
  const bool chip_agree =
      stats_agree(chip_dense.stats, chip_sparse1.stats, 1e-6);
  std::printf("  stats bit-identical across 1/8 threads: %s\n",
              chip_deterministic ? "yes" : "NO");
  std::printf("  dense/sparse stats agree (rtol 1e-6): %s\n",
              chip_agree ? "yes" : "NO");

  // Structural pre-pass overhead vs. the sparse-serial MC scenarios.
  auto chip_rig = bench::make_chip_rig();
  const auto pre_mic =
      run_prepass("mic", rig->nl, kSamples, sparse1.wall_ms);
  const auto pre_chip = run_prepass("chip", chip_rig->nl, kChipSamples,
                                    chip_sparse1.wall_ms);
  std::printf("engine harness: structural pre-pass overhead\n");
  for (const PrepassRun* r : {&pre_mic, &pre_chip})
    std::printf("  %-14s cold %7.3f ms  cached %8.5f ms/call  "
                "added %6.3f%% of MC wall\n",
                r->name.c_str(), r->cold_ms, r->cached_ms,
                100.0 * r->added_fraction);

  // Value-range interval pre-pass, isolated from the lint plumbing.
  const auto range_mic =
      run_range_prepass("mic-range", rig->nl, sparse1.wall_ms);
  const auto range_chip = run_range_prepass("chip-range", chip_rig->nl,
                                            chip_sparse1.wall_ms);
  std::printf("engine harness: value-range pre-pass overhead\n");
  for (const RangePrepassRun* r : {&range_mic, &range_chip})
    std::printf("  %-14s analysis %7.3f ms  added %6.3f%% of MC wall\n",
                r->name.c_str(), r->analysis_ms,
                100.0 * r->added_fraction);

  // Fixed costs of a cold solve (single-threaded).
  const int kColdRepeats = smoke ? 5 : 41;
  const auto cold_mic = run_cold_path(
      "mic-x0", kColdRepeats, ckt::AnalysisMode::kDcOp, false,
      [] { return netlist_of(bench::make_mic_rig()); });
  const auto cold_drv = run_cold_path(
      "buffer-tran", kColdRepeats, ckt::AnalysisMode::kTransient, true,
      [] { return netlist_of(bench::make_drv_rig()); });
  const auto cold_chip = run_cold_path(
      "chip-x0", kColdRepeats, ckt::AnalysisMode::kDcOp, false,
      [] { return netlist_of(bench::make_chip_rig()); });
  std::printf("engine harness: cold-path fixed costs, us "
              "(median / min / IQR of %d, 1 thread)\n",
              kColdRepeats);
  for (const ColdPathRun* r : {&cold_mic, &cold_drv, &cold_chip})
    std::printf("  %-12s n=%-4d analyze %.2f / %.2f / %.2f  "
                "range %.2f / %.2f / %.2f  first_op %.2f / %.2f / %.2f  "
                "init %.2f / %.2f / %.2f\n",
                r->name.c_str(), r->unknowns, r->analyze_us.median,
                r->analyze_us.min, r->analyze_us.iqr, r->range_us.median,
                r->range_us.min, r->range_us.iqr, r->first_op_us.median,
                r->first_op_us.min, r->first_op_us.iqr, r->init_us.median,
                r->init_us.min, r->init_us.iqr);

  // Transient hot path on the paper's waveform workloads.  Nonlinear
  // circuits run full Newton (one timed policy); the linear RC row
  // times its fast path against full Newton.
  const auto tran_mic = run_tran(
      "micamp-tone", kRepeats, [&](bool) {
        auto r = bench::make_mic_rig();
        r->vinp->set_waveform(dev::Waveform::sine(0.0, 1e-3, 1e3));
        r->vinn->set_waveform(dev::Waveform::sine(0.0, -1e-3, 1e3));
        r->mic.set_gain_code(5);
        an::TranOptions t;
        t.t_stop = 1e-3 * tran_scale;
        t.dt = 2e-6;
        TranOnce o;
        const auto t0 = Clock::now();
        o.res = an::run_transient(r->nl, t);
        o.tran_ms = ms_since(t0);
        return o;
      });
  const auto tran_drv = run_tran(
      "buffer-hd", kRepeats, [&](bool) {
        auto r = bench::make_drv_rig();
        r->vsp->set_waveform(dev::Waveform::sine(0.0, 0.3, 1e3));
        r->vsn->set_waveform(dev::Waveform::sine(0.0, -0.3, 1e3));
        an::TranOptions t;
        t.t_stop = 2e-3 * tran_scale;
        t.dt = 1e-6;
        TranOnce o;
        const auto t0 = Clock::now();
        o.res = an::run_transient(r->nl, t);
        o.tran_ms = ms_since(t0);
        return o;
      });
  // Chip-scale settling run (~170 unknowns).
  const auto tran_chip = run_tran(
      "chip-settle", kRepeats, [&](bool) {
        auto r = bench::make_chip_rig();
        r->nl.find_as<dev::VSource>("Vinp")->set_waveform(
            dev::Waveform::sine(0.0, 1e-3, 1e3));
        r->nl.find_as<dev::VSource>("Vinn")->set_waveform(
            dev::Waveform::sine(0.0, -1e-3, 1e3));
        an::TranOptions t;
        t.t_stop = 0.4e-3 * tran_scale;
        t.dt = 2e-6;
        TranOnce o;
        const auto t0 = Clock::now();
        o.res = an::run_transient(r->nl, t);
        o.tran_ms = ms_since(t0);
        return o;
      });
  const auto tran_rc = run_tran(
      "linear-rc", kRepeats, [&](bool fast) {
        ckt::Netlist nl;
        const auto in = nl.node("in");
        const auto out = nl.node("out");
        nl.add<dev::VSource>("V1", in, ckt::kGround,
                             dev::Waveform::sine(0.0, 1.0, 1e3));
        nl.add<dev::Resistor>("R1", in, out, 1e3);
        nl.add<dev::Capacitor>("C1", out, ckt::kGround, 100e-9);
        an::TranOptions t;
        t.t_stop = 10e-3 * tran_scale;
        t.dt = 1e-6;
        t.linear_fast_path = fast;
        TranOnce o;
        const auto t0 = Clock::now();
        o.res = an::run_transient(nl, t);
        o.tran_ms = ms_since(t0);
        if (o.res.ok) o.wave = o.res.node_wave(out);
        return o;
      });
  std::printf("engine harness: transient (best of %d)\n", kRepeats);
  bool tran_agree = true;
  for (const TranRun* r : {&tran_mic, &tran_drv, &tran_chip, &tran_rc}) {
    std::printf("  %-14s %8.1f ms  factors %ld  newton %ld", r->name.c_str(),
                r->wall_ms, r->factor_count, r->newton_iterations);
    if (r->linear_fast_path)
      std::printf("  [linear, reused %ld]  full Newton %8.1f ms  "
                  "speedup %5.2fx  agree %s",
                  r->reuse_count, r->full_ms, r->speedup(),
                  r->agree ? "yes" : "NO");
    std::printf("\n");
    tran_agree = tran_agree && r->agree;
  }

  // Lockstep ensemble MC transient: the same perturbed-sample workload
  // twice, per-sample baseline (run_transient_sweep, sample 0's
  // structure shared) vs the SoA lockstep engine, gated on per-sample
  // agreement of the final differential output.  record_after keeps
  // only the last couple of points so recording stays off the timed
  // hot path.
  const auto pm_ens = proc::ProcessModel::cmos12();
  const int kEnsMic = mc_samples > 0 ? mc_samples : (smoke ? 8 : 32);
  const int kEnsChip = mc_samples > 0 ? mc_samples : (smoke ? 4 : 16);
  const int kEnsThreads = ens_threads > 0 ? ens_threads : 8;
  const auto conf_mic_ens = [&](std::size_t i, ckt::Netlist& nl,
                                an::TranOptions& t) {
    auto parts = bench::build_mic_into(nl);
    num::Rng srng(1000 + 17 * static_cast<std::uint64_t>(i));
    bench::perturb_mic_strings(parts.mic, pm_ens, srng);
    parts.mic.set_gain_code(5);
    parts.vinp->set_waveform(dev::Waveform::sine(0.0, 1e-3, 1e3));
    parts.vinn->set_waveform(dev::Waveform::sine(0.0, -1e-3, 1e3));
    t.t_stop = 0.5e-3 * tran_scale;
    t.dt = 2e-6;
    t.record_after = t.t_stop - 1.5 * t.dt;
  };
  const auto mic_outp = rig->mic.outp;
  const auto mic_outn = rig->mic.outn;
  const auto mic_final = [&](const an::TranResult& r) {
    const auto w = r.diff_wave(mic_outp, mic_outn);
    return w.empty() ? std::numeric_limits<double>::quiet_NaN() : w.back();
  };
  const auto conf_chip_ens = [&](std::size_t i, ckt::Netlist& nl,
                                 an::TranOptions& t) {
    auto parts = bench::build_chip_into(nl);
    num::Rng srng(2000 + 31 * static_cast<std::uint64_t>(i));
    for (const auto& d : nl.devices())
      if (auto* res = dynamic_cast<dev::Resistor*>(d.get()))
        res->apply_relative_error(pm_ens.sample_resistor_mismatch(srng));
    parts.vinp->set_waveform(dev::Waveform::sine(0.0, 1e-3, 1e3));
    parts.vinn->set_waveform(dev::Waveform::sine(0.0, -1e-3, 1e3));
    t.t_stop = 0.4e-3 * tran_scale;
    t.dt = 2e-6;
    t.record_after = t.t_stop - 1.5 * t.dt;
  };
  const auto chip_outp = chip_rig->chip.driver.outp;
  const auto chip_outn = chip_rig->chip.driver.outn;
  const auto chip_final = [&](const an::TranResult& r) {
    const auto w = r.diff_wave(chip_outp, chip_outn);
    return w.empty() ? std::numeric_limits<double>::quiet_NaN() : w.back();
  };
  std::printf("engine harness: ensemble MC transient, mic %d / chip %d "
              "samples, %d threads (best of %d)\n",
              kEnsMic, kEnsChip, kEnsThreads, kRepeats);
  const auto ens_mic_ps =
      run_ens("mic-per-sample", kEnsMic, kEnsThreads, 0, kRepeats,
              conf_mic_ens, mic_final);
  const auto ens_mic_w4 = run_ens("mic-ensemble-w4", kEnsMic, kEnsThreads,
                                  4, kRepeats, conf_mic_ens, mic_final);
  const auto ens_mic_w8 = run_ens("mic-ensemble-w8", kEnsMic, kEnsThreads,
                                  8, kRepeats, conf_mic_ens, mic_final);
  const auto ens_chip_ps =
      run_ens("chip-per-sample", kEnsChip, kEnsThreads, 0,
              std::min(kRepeats, 2), conf_chip_ens, chip_final);
  const auto ens_chip_w8 =
      run_ens("chip-ensemble-w8", kEnsChip, kEnsThreads, 8,
              std::min(kRepeats, 2), conf_chip_ens, chip_final);
  const double mic_ens_speedup =
      ens_mic_ps.wall_ms / std::min(ens_mic_w4.wall_ms, ens_mic_w8.wall_ms);
  const double chip_ens_speedup = ens_chip_ps.wall_ms / ens_chip_w8.wall_ms;
  bool ens_ok = true;
  for (const EnsRun* r : {&ens_mic_ps, &ens_mic_w4, &ens_mic_w8,
                          &ens_chip_ps, &ens_chip_w8}) {
    const EnsRun* base =
        r->name[0] == 'm' ? &ens_mic_ps : &ens_chip_ps;
    const bool agree = finals_agree(*r, *base, 1e-5);
    std::printf("  %-15s %8.1f ms  %7.1f samples/s  %s  splits %ld  "
                "rejoins %ld  agree %s\n",
                r->name.c_str(), r->wall_ms, r->samples_per_sec,
                r->used_ensemble ? "lockstep  " : "per-sample",
                r->splits, r->rejoins, agree ? "yes" : "NO");
    ens_ok = ens_ok && r->all_ok && agree &&
             (r == base || r->used_ensemble);
  }
  std::printf("  mic ensemble speedup %5.2fx  chip ensemble speedup "
              "%5.2fx  (all agree: %s)\n",
              mic_ens_speedup, chip_ens_speedup, ens_ok ? "yes" : "NO");

  // Budget-check overhead: the cooperative-cancellation polls in the
  // transient hot loops cost one null test per site with no budget
  // attached, and a few relaxed atomic loads plus a clock read when an
  // armed-but-idle one rides along.  Both must stay in the noise --
  // tools/bench_compare.py gates overhead_fraction below 1% absolutely.
  struct BudgetRun {
    std::string name;
    double plain_ms = std::numeric_limits<double>::infinity();
    double budgeted_ms = std::numeric_limits<double>::infinity();
    bool agree = false;
    double overhead_fraction() const {
      return plain_ms > 0.0 ? budgeted_ms / plain_ms - 1.0 : 0.0;
    }
  };
  const auto run_budget_overhead =
      [&](const std::string& name,
          const std::function<an::TranResult(core::RunBudget*)>& once) {
        BudgetRun br;
        br.name = name;
        an::TranResult plain, budgeted;
        // One extra repeat absorbs first-run warm-up; best-of keeps the
        // paired comparison fair on a noisy host.
        for (int rep = 0; rep < kRepeats + 1; ++rep) {
          auto t0 = Clock::now();
          plain = once(nullptr);
          br.plain_ms = std::min(br.plain_ms, ms_since(t0));
          // Every limit armed (so each poll does its full work, clock
          // read included) but far too large to ever trip.
          core::RunBudget budget(1e15);
          budget.max_newton_iterations = std::numeric_limits<long>::max();
          budget.max_steps = std::numeric_limits<long>::max();
          t0 = Clock::now();
          budgeted = once(&budget);
          br.budgeted_ms = std::min(br.budgeted_ms, ms_since(t0));
        }
        br.agree = plain.ok && budgeted.ok && !plain.x.empty() &&
                   plain.x.back() == budgeted.x.back();
        return br;
      };
  const auto bud_chip =
      run_budget_overhead("chip-settle", [&](core::RunBudget* b) {
        auto r = bench::make_chip_rig();
        r->nl.find_as<dev::VSource>("Vinp")->set_waveform(
            dev::Waveform::sine(0.0, 1e-3, 1e3));
        r->nl.find_as<dev::VSource>("Vinn")->set_waveform(
            dev::Waveform::sine(0.0, -1e-3, 1e3));
        an::TranOptions t;
        t.t_stop = 0.4e-3 * tran_scale;
        t.dt = 2e-6;
        t.budget = b;
        return an::run_transient(r->nl, t);
      });
  const auto bud_drv =
      run_budget_overhead("buffer-hd", [&](core::RunBudget* b) {
        auto r = bench::make_drv_rig();
        r->vsp->set_waveform(dev::Waveform::sine(0.0, 0.3, 1e3));
        r->vsn->set_waveform(dev::Waveform::sine(0.0, -0.3, 1e3));
        an::TranOptions t;
        t.t_stop = 2e-3 * tran_scale;
        t.dt = 1e-6;
        t.budget = b;
        return an::run_transient(r->nl, t);
      });
  std::printf("engine harness: budget-check overhead (best of %d)\n",
              kRepeats + 1);
  bool budget_agree = true;
  for (const BudgetRun* r : {&bud_chip, &bud_drv}) {
    std::printf("  %-14s plain %8.1f ms  budgeted %8.1f ms  "
                "overhead %+6.2f%%  agree %s\n",
                r->name.c_str(), r->plain_ms, r->budgeted_ms,
                100.0 * r->overhead_fraction(), r->agree ? "yes" : "NO");
    budget_agree = budget_agree && r->agree;
  }

  // Assembly modes: repeated sparse re-assembly under the searched /
  // slot-cached / batched paths.  Zero lookups in the slot modes is a
  // correctness gate (the whole point of the cache), checked in
  // test_assembly too; here it is reported so regressions show up in
  // the JSON diff.
  const int kAsmIters = smoke ? 100 : 2000;
  auto asm_mic_rig = bench::make_mic_rig();
  asm_mic_rig->mic.set_gain_code(5);
  auto asm_chip_rig = bench::make_chip_rig();
  const auto asm_mic =
      run_assembly("mic", asm_mic_rig->nl, kAsmIters, kRepeats);
  const auto asm_chip =
      run_assembly("chip", asm_chip_rig->nl, kAsmIters, kRepeats);
  std::printf("engine harness: assembly modes, %d re-assemblies "
              "(best of %d)\n",
              kAsmIters, kRepeats);
  bool asm_zero_lookups = true;
  for (const AsmRun* r : {&asm_mic, &asm_chip}) {
    std::printf("  %-5s (n=%3d)  searched %7.2f ms (%ld lookups/asm)  "
                "slot %7.2f ms (%.2fx, %ld)  batched %7.2f ms (%.2fx, "
                "%ld)\n",
                r->name.c_str(), r->unknowns, r->searched_ms,
                r->searched_lookups, r->slot_ms, r->slot_speedup(),
                r->slot_lookups, r->batched_ms, r->batched_speedup(),
                r->batched_lookups);
    asm_zero_lookups = asm_zero_lookups && r->slot_lookups == 0 &&
                       r->batched_lookups == 0;
  }
  std::printf("  slot modes replay with zero pattern searches: %s\n",
              asm_zero_lookups ? "yes" : "NO");

  // PSS vs verified settle on the paper's two tone workloads.
  const double kPssTol = 0.05;  // THD agreement gate, relative
  const auto pss_drv = run_pss(
      "buffer-hd", 1e3, 1e-6, kPssTol, kRepeats, [&](ckt::Netlist& nl) {
        auto p = bench::build_drv_into(nl);
        p.vsp->set_waveform(dev::Waveform::sine(0.0, 0.3, 1e3));
        p.vsn->set_waveform(dev::Waveform::sine(0.0, -0.3, 1e3));
        return std::make_pair(p.drv.outp, p.drv.outn);
      });
  const auto pss_mic = run_pss(
      "micamp-tone", 1e3, 2e-6, kPssTol, kRepeats, [&](ckt::Netlist& nl) {
        auto p = bench::build_mic_into(nl);
        p.mic.set_gain_code(5);
        p.vinp->set_waveform(dev::Waveform::sine(0.0, 1e-3, 1e3));
        p.vinn->set_waveform(dev::Waveform::sine(0.0, -1e-3, 1e3));
        return std::make_pair(p.mic.outp, p.mic.outn);
      });
  std::printf("engine harness: shooting PSS vs verified settle "
              "(best of %d)\n",
              kRepeats);
  bool pss_ok = true;
  for (const PssRun* r : {&pss_drv, &pss_mic}) {
    std::printf("  %-14s settle %5.1f periods (%d rounds, %7.1f ms)  "
                "pss %4.2f periods (%d shots, %7.1f ms)  ratio %5.2fx  "
                "thd %.3e vs %.3e (drel %.1e) agree %s\n",
                r->name.c_str(), r->settle_periods, r->settle_rounds,
                r->settle_ms, r->pss_periods, r->shooting_iterations,
                r->pss_ms, r->period_ratio(), r->pss_thd, r->settle_thd,
                r->rel_err(), r->agree ? "yes" : "NO");
    pss_ok = pss_ok && r->ok && r->agree;
  }

  // Deck-service throughput: mixed mic-amp traffic (three gain codes,
  // one shared topology fingerprint) plus an RC deck (second registry
  // entry), each as .op, .op+.ac, and the mic/RC decks also as an
  // 8-sample Monte-Carlo job.
  const char* kOpDir = ".op\n";
  const char* kAcDir = ".op\n.ac dec 5 100 1e6\n";
  std::vector<ServeJobSpec> serve_unique;
  const std::string rc_deck =
      "serve rc\n"
      "v1 in 0 dc 0 ac 1\n"
      "r1 in out 1k\n"
      "c1 out 0 100n\n";
  for (int code : {0, 2, 5}) {
    serve_unique.push_back({serve_mic_deck(code, kOpDir), {}});
    serve_unique.push_back({serve_mic_deck(code, kAcDir), {}});
  }
  serve_unique.push_back({rc_deck + kOpDir + ".end\n", {}});
  serve_unique.push_back({rc_deck + kAcDir + ".end\n", {}});
  {
    ServeJobSpec mc_mic{serve_mic_deck(0, kOpDir), {}};
    mc_mic.opt.mc = 8;
    serve_unique.push_back(mc_mic);
    ServeJobSpec mc_rc{rc_deck + kOpDir + ".end\n", {}};
    mc_rc.opt.mc = 8;
    serve_unique.push_back(mc_rc);
  }
  const int kServeRounds = smoke ? 2 : 5;
  std::vector<ServeJobSpec> serve_stream;
  for (int i = 0; i < kServeRounds; ++i)
    serve_stream.insert(serve_stream.end(), serve_unique.begin(),
                        serve_unique.end());

  const auto serve_cold = run_serve_pass("cold", serve_stream, nullptr,
                                         false, kRepeats);
  serve::CacheRegistry serve_reg;
  // Prime in unique-job order so the first-publish winner for each
  // fingerprint is the gain-0 mic deck / the RC deck -- the decks the
  // bit-identity check below replays.
  for (const auto& j : serve_unique) {
    serve::DeckOptions o = j.opt;
    o.use_result_cache = false;
    (void)serve::run_deck(j.deck, o, &serve_reg);
  }
  const auto serve_warm = run_serve_pass("warm-structure", serve_stream,
                                         &serve_reg, false, kRepeats);
  // Memo prime: one pass with the result cache on stores each unique
  // job's bytes; the timed passes then replay them verbatim.
  for (const auto& j : serve_unique)
    (void)serve::run_deck(j.deck, j.opt, &serve_reg);
  const auto serve_memo = run_serve_pass("warm-memo", serve_stream,
                                         &serve_reg, true, kRepeats);

  // Bit-identity gate: warm output must match cold byte-for-byte
  // (timing lines stripped) for every job whose deck published its
  // fingerprint's structure.  Gain 3/6 jobs adopt symbolic analysis
  // built from the gain-0 values, where pivot order (value-dependent
  // Markowitz) may differ in the last ulp, so they are throughput-only.
  bool serve_identical = true;
  for (std::size_t i : {std::size_t{0}, std::size_t{1},  // mic g0 op/ac
                        serve_unique.size() - 4,         // rc op
                        serve_unique.size() - 3,         // rc ac
                        serve_unique.size() - 2,         // mic g0 mc
                        serve_unique.size() - 1}) {      // rc mc
    serve::DeckOptions o = serve_unique[i].opt;
    o.use_result_cache = false;
    const auto cold_r = serve::run_deck(serve_unique[i].deck, o, nullptr);
    const auto warm_r =
        serve::run_deck(serve_unique[i].deck, o, &serve_reg);
    serve_identical = serve_identical && warm_r.warm &&
                      cold_r.exit_code == warm_r.exit_code &&
                      serve_strip_timing(cold_r.out) ==
                          serve_strip_timing(warm_r.out);
  }
  const auto serve_stats = serve_reg.stats();
  const bool serve_zero_searches =
      serve_warm.searches == 0 && serve_memo.searches == 0;
  const bool serve_ok = serve_cold.ok && serve_warm.ok && serve_memo.ok &&
                        serve_identical && serve_zero_searches &&
                        serve_stats.fingerprint_collisions == 0;
  const double serve_structure_speedup =
      serve_cold.wall_ms / serve_warm.wall_ms;
  const double serve_warm_speedup =
      serve_cold.wall_ms / serve_memo.wall_ms;
  std::printf("engine harness: deck service, %zu-job mixed op/AC/MC "
              "stream (best of %d)\n",
              serve_stream.size(), kRepeats);
  for (const ServeRun* r : {&serve_cold, &serve_warm, &serve_memo})
    std::printf("  %-14s %8.1f ms  %7.1f jobs/s  speedup %5.2fx  "
                "searches %6ld  warm %3d  memo %3d\n",
                r->name.c_str(), r->wall_ms, r->jobs_per_sec(),
                serve_cold.wall_ms / r->wall_ms, r->searches,
                r->warm_jobs, r->memo_hits);
  std::printf("  warm passes replay with zero pattern searches: %s\n",
              serve_zero_searches ? "yes" : "NO");
  std::printf("  warm output bit-identical to cold: %s\n",
              serve_identical ? "yes" : "NO");

  const double mic_speedup =
      dense.wall_ms /
      std::min({sparse1.wall_ms, sparse2.wall_ms, sparse8.wall_ms});
  const double chip_speedup =
      chip_dense.wall_ms /
      std::min(chip_sparse1.wall_ms, chip_sparse8.wall_ms);
  const double best_speedup = std::max(mic_speedup, chip_speedup);

  std::FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"engine_harness\",\n");
  std::fprintf(f, "  \"mic_samples\": %d,\n", kSamples);
  std::fprintf(f, "  \"chip_samples\": %d,\n", kChipSamples);
  std::fprintf(f, "  \"repeats\": %d,\n", kRepeats);
  std::fprintf(f, "  \"mc_configs\": [\n");
  json_mc(f, dense, "gain_db", dense.wall_ms, false);
  json_mc(f, sparse1, "gain_db", dense.wall_ms, false);
  json_mc(f, sparse2, "gain_db", dense.wall_ms, false);
  json_mc(f, sparse8, "gain_db", dense.wall_ms, true);
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"chip_mc_configs\": [\n");
  json_mc(f, chip_dense, "iq_amps", chip_dense.wall_ms, false);
  json_mc(f, chip_sparse1, "iq_amps", chip_dense.wall_ms, false);
  json_mc(f, chip_sparse8, "iq_amps", chip_dense.wall_ms, true);
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"ac_grid_configs\": [\n");
  json_ac(f, ac_dense, ac_dense.wall_ms, false);
  json_ac(f, ac_sparse1, ac_dense.wall_ms, false);
  json_ac(f, ac_sparse8, ac_dense.wall_ms, true);
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"structural_prepass\": [\n");
  for (const PrepassRun* r : {&pre_mic, &pre_chip})
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"cold_ms\": %.4f, "
                 "\"cached_per_call_ms\": %.6f, \"samples\": %d, "
                 "\"scenario_wall_ms\": %.3f, "
                 "\"added_fraction\": %.6f}%s\n",
                 r->name.c_str(), r->cold_ms, r->cached_ms,
                 r == &pre_mic ? kSamples : kChipSamples,
                 r == &pre_mic ? sparse1.wall_ms : chip_sparse1.wall_ms,
                 r->added_fraction, r == &pre_chip ? "" : ",");
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"range_prepass\": [\n");
  for (const RangePrepassRun* r : {&range_mic, &range_chip})
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"analysis_ms\": %.4f, "
                 "\"scenario_wall_ms\": %.3f, "
                 "\"added_fraction\": %.6f}%s\n",
                 r->name.c_str(), r->analysis_ms,
                 r == &range_mic ? sparse1.wall_ms : chip_sparse1.wall_ms,
                 r->added_fraction, r == &range_chip ? "" : ",");
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"cold_path\": [\n");
  for (const ColdPathRun* r : {&cold_mic, &cold_drv, &cold_chip}) {
    const auto spread = [&](const char* key, const Spread& v) {
      std::fprintf(f,
                   ", \"%s\": {\"median\": %.3f, \"min\": %.3f, "
                   "\"iqr\": %.3f}",
                   key, v.median, v.min, v.iqr);
    };
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"threads\": 1, "
                 "\"repeats\": %d, \"unknowns\": %d, \"nnz\": %d, "
                 "\"factor_nnz\": %d",
                 r->name.c_str(), r->repeats, r->unknowns, r->nnz,
                 r->factor_nnz);
    spread("analyze_us", r->analyze_us);
    spread("range_us", r->range_us);
    spread("first_op_us", r->first_op_us);
    spread("init_us", r->init_us);
    std::fprintf(f, "}%s\n", r == &cold_chip ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"transient_configs\": [\n");
  json_tran(f, tran_mic, false);
  json_tran(f, tran_drv, false);
  json_tran(f, tran_chip, false);
  json_tran(f, tran_rc, true);
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"pss_configs\": [\n");
  for (const PssRun* r : {&pss_drv, &pss_mic})
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"f0_hz\": %g, "
                 "\"wall_ms\": %.3f, \"settle_ms\": %.3f, "
                 "\"speedup_vs_settle\": %.3f, "
                 "\"settle_periods\": %.2f, \"settle_rounds\": %d, "
                 "\"pss_periods\": %.2f, \"shooting_iterations\": %d, "
                 "\"phi_solves\": %ld, "
                 "\"period_ratio\": %.3f, "
                 "\"settle_thd\": %.8e, \"pss_thd\": %.8e, "
                 "\"thd_rel_err\": %.3e, \"thd_agree\": %s, "
                 "\"periodicity_residual\": %.3e}%s\n",
                 r->name.c_str(), r->f0, r->pss_ms, r->settle_ms,
                 r->speedup(), r->settle_periods, r->settle_rounds,
                 r->pss_periods, r->shooting_iterations, r->phi_solves,
                 r->period_ratio(), r->settle_thd, r->pss_thd,
                 r->rel_err(), r->agree ? "true" : "false", r->residual,
                 r == &pss_mic ? "" : ",");
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"ensemble_configs\": [\n");
  json_ens(f, ens_mic_ps, ens_mic_ps,
           finals_agree(ens_mic_ps, ens_mic_ps, 1e-5), false);
  json_ens(f, ens_mic_w4, ens_mic_ps,
           finals_agree(ens_mic_w4, ens_mic_ps, 1e-5), false);
  json_ens(f, ens_mic_w8, ens_mic_ps,
           finals_agree(ens_mic_w8, ens_mic_ps, 1e-5), false);
  json_ens(f, ens_chip_ps, ens_chip_ps,
           finals_agree(ens_chip_ps, ens_chip_ps, 1e-5), false);
  json_ens(f, ens_chip_w8, ens_chip_ps,
           finals_agree(ens_chip_w8, ens_chip_ps, 1e-5), true);
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"budget_overhead\": [\n");
  for (const BudgetRun* r : {&bud_chip, &bud_drv})
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"wall_ms\": %.3f, "
                 "\"plain_ms\": %.3f, \"budgeted_ms\": %.3f, "
                 "\"overhead_fraction\": %.6f, "
                 "\"waveforms_agree\": %s}%s\n",
                 r->name.c_str(), r->budgeted_ms, r->plain_ms,
                 r->budgeted_ms, r->overhead_fraction(),
                 r->agree ? "true" : "false", r == &bud_drv ? "" : ",");
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"assembly_configs\": [\n");
  json_asm(f, asm_mic, false);
  json_asm(f, asm_chip, true);
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"serve_configs\": [\n");
  for (const ServeRun* r : {&serve_cold, &serve_warm, &serve_memo})
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"wall_ms\": %.3f, "
                 "\"jobs\": %d, \"jobs_per_sec\": %.1f, "
                 "\"speedup_vs_cold\": %.3f, "
                 "\"pattern_searches\": %ld, \"warm_jobs\": %d, "
                 "\"memo_hits\": %d, \"all_jobs_ok\": %s}%s\n",
                 r->name.c_str(), r->wall_ms, r->jobs, r->jobs_per_sec(),
                 serve_cold.wall_ms / r->wall_ms, r->searches,
                 r->warm_jobs, r->memo_hits, r->ok ? "true" : "false",
                 r == &serve_memo ? "" : ",");
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"serve_registry\": {\"entries\": %zu, "
               "\"hits\": %ld, \"misses\": %ld, \"evictions\": %ld, "
               "\"fingerprint_collisions\": %ld, "
               "\"result_entries\": %zu, \"result_hits\": %ld},\n",
               serve_stats.entries, serve_stats.hits, serve_stats.misses,
               serve_stats.evictions, serve_stats.fingerprint_collisions,
               serve_stats.result_entries, serve_stats.result_hits);
  std::fprintf(f, "  \"serve_outputs_identical\": %s,\n",
               serve_identical ? "true" : "false");
  std::fprintf(f, "  \"serve_warm_zero_searches\": %s,\n",
               serve_zero_searches ? "true" : "false");
  std::fprintf(f, "  \"serve_structure_speedup\": %.3f,\n",
               serve_structure_speedup);
  std::fprintf(f, "  \"serve_warm_speedup\": %.3f,\n", serve_warm_speedup);
  std::fprintf(f, "  \"assembly_zero_lookups\": %s,\n",
               asm_zero_lookups ? "true" : "false");
  std::fprintf(f, "  \"stats_bit_identical_across_threads\": %s,\n",
               (deterministic && chip_deterministic) ? "true" : "false");
  std::fprintf(f, "  \"dense_sparse_stats_agree\": %s,\n",
               (engines_agree && chip_agree) ? "true" : "false");
  std::fprintf(f, "  \"mic_mc_speedup_vs_dense_serial\": %.3f,\n",
               mic_speedup);
  std::fprintf(f, "  \"chip_mc_speedup_vs_dense_serial\": %.3f,\n",
               chip_speedup);
  std::fprintf(f, "  \"best_mc_speedup_vs_dense_serial\": %.3f,\n",
               best_speedup);
  std::fprintf(f, "  \"mic_ensemble_speedup_vs_per_sample\": %.3f,\n",
               mic_ens_speedup);
  std::fprintf(f, "  \"chip_ensemble_speedup_vs_per_sample\": %.3f\n",
               chip_ens_speedup);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s (best MC speedup %.2fx, chip ensemble %.2fx)\n",
              out_path, best_speedup, chip_ens_speedup);

  return (deterministic && engines_agree && chip_deterministic &&
          chip_agree && tran_agree && asm_zero_lookups && budget_agree &&
          ens_ok && pss_ok && serve_ok)
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int mc_samples = 0;   // 0 = scenario defaults
  int ens_threads = 0;  // 0 = harness default (8)
  const char* out = "BENCH_engine.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--mc-samples") == 0 && i + 1 < argc) {
      mc_samples = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      ens_threads = std::atoi(argv[++i]);
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr,
                   "usage: %s [OUT.json] [--smoke] [--mc-samples N] "
                   "[--threads N]\n",
                   argv[0]);
      return 2;
    } else {
      out = argv[i];
    }
  }
  return run_harness(out, smoke, mc_samples, ens_threads);
}
