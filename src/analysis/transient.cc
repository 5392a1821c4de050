#include "analysis/transient.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>

#include "analysis/mna.h"
#include "analysis/op.h"
#include "core/faultpoint.h"
#include "core/parallel.h"
#include "core/text_writer.h"

namespace msim::an {
namespace {

// Outcome of one implicit-step Newton solve, with the context needed to
// diagnose a persistent failure.
struct StepOutcome {
  bool ok = false;
  SolveStatus fail = SolveStatus::kNonConvergence;
  int bad_unknown = -1;  // zero-pivot column / worst-|dx| / first NaN
  double max_dx = 0.0;
  int iterations = 0;
};

// Matrix workspace + solution buffer shared by every Newton iteration
// of every time step; the sparse symbolic analysis is computed on the
// first factorization and replayed by all later ones.  have_factor /
// factor_dt persist ACROSS time steps: they describe the numeric
// factorization currently held by `sys`, which the linear fast path
// keeps reusing from one step to the next as long as dt is unchanged.
struct StepWorkspace {
  RealSystem sys;
  num::RealVector x_new;
  bool have_factor = false;
  double factor_dt = -1.0;
  // Integrator the held factorization was stamped with: a backward-
  // Euler step among trapezoidal ones (PSS first step) halves every
  // companion conductance, so an integrator switch invalidates the
  // held LU exactly like a dt change.
  bool factor_trap = true;
};

// The two accepted states before the current one, x1 = x(t - h1) and
// x2 = x(t - h1 - h2), with the steps that led on from them.  Every
// nonlinear step starts Newton from a predictor extrapolated through
// them (SPICE2's, L. W. Nagel, UCB/ERL M520, 1975).
struct StepHistory {
  num::RealVector x1, x2;
  double h1 = 0.0, h2 = 0.0;
  int count = 0;  // states held: 0, 1 or 2

  // Newton start for a step of h from x: the quadratic through the last
  // three accepted points in Newton divided-difference form (3x - 3x1 +
  // x2 at constant step), the line through the last two when only one
  // state is held, else x itself.
  void predict(const num::RealVector& x, double h,
               num::RealVector& out) const {
    if (count == 0) {
      out = x;
      return;
    }
    out.resize(x.size());
    const double a1 = h / h1;
    if (count == 1) {
      for (std::size_t i = 0; i < x.size(); ++i)
        out[i] = x[i] + a1 * (x[i] - x1[i]);
      return;
    }
    const double b = h * (h + h1) / (h1 + h2);
    const double a = a1 + b / h1;
    const double c = b / h2;
    for (std::size_t i = 0; i < x.size(); ++i)
      out[i] = x[i] + a * (x[i] - x1[i]) - c * (x1[i] - x2[i]);
  }

  // Accepts the step of h from x to x_new by rotating buffers, no copy:
  // x_new becomes the current state, x the newest history entry, and
  // x_new is left holding scratch for the next predict().
  void accept(num::RealVector& x, num::RealVector& x_new, double h) {
    std::swap(x1, x2);
    std::swap(x1, x);
    std::swap(x, x_new);
    h2 = h1;
    h1 = h;
    count = std::min(count + 1, 2);
  }
};

// The fixed-dt loop recomputes each step as `t_target - t`, so the
// nominal dt jitters by an ulp of t from step to step.  Treat those as
// the same step size: the linear fast path snaps the RHS to the
// factored dt, so an ulp of jitter changes nothing about the solve.
bool same_dt(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::abs(b);
}

// One implicit step of a nonlinear circuit: damped full Newton, a fresh
// factorization on every iteration.
StepOutcome newton_step(const ckt::Netlist& nl, const AssembleParams& p,
                        const TranOptions& opt, StepWorkspace& ws,
                        num::RealVector& x) {
  StepOutcome out;
  // Dynamic devices carry integration history that changes on every
  // accepted step without showing up in AssembleParams; restamp the
  // linear base image each step.
  ws.sys.invalidate_base();
  for (int it = 0; it < opt.max_newton; ++it) {
    if (opt.budget) {
      opt.budget->note_newton_iteration();
      const core::StopReason stop = opt.budget->stop_reason();
      if (stop != core::StopReason::kNone) {
        out.fail = stop == core::StopReason::kCancelled
                       ? SolveStatus::kCancelled
                       : SolveStatus::kBudgetExceeded;
        return out;
      }
    }
    ++out.iterations;
    ws.sys.assemble(nl, x, p);
    if (!ws.sys.factor()) {
      out.fail = SolveStatus::kSingularMatrix;
      out.bad_unknown = ws.sys.singular_col();
      return out;
    }
    ws.sys.solve(ws.x_new);
    const num::RealVector& x_new = ws.x_new;

    double max_dx = 0.0;
    int worst = -1;
    bool converged = true;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (!std::isfinite(x_new[i])) {
        out.fail = SolveStatus::kNonFinite;
        out.bad_unknown = static_cast<int>(i);
        return out;
      }
      const double adx = std::abs(x_new[i] - x[i]);
      if (adx > max_dx) {
        max_dx = adx;
        worst = static_cast<int>(i);
      }
      if (adx > kNewtonVtol + kNewtonReltol * std::abs(x_new[i]))
        converged = false;
    }
    out.max_dx = max_dx;
    out.bad_unknown = worst;

    // The unclamped update already satisfies the tolerance: accept it
    // as-is.  (Requiring the step clamp to be inactive here would reject
    // a converged solution reached exactly at the clamp boundary.)
    if (converged) {
      x = x_new;
      out.ok = true;
      return out;
    }

    const double scale =
        max_dx > opt.max_step ? opt.max_step / max_dx : 1.0;
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] += scale * (x_new[i] - x[i]);
  }
  out.fail = SolveStatus::kNonConvergence;
  return out;
}

// One implicit step of a purely linear circuit: the Newton system is
// x-independent, so a single solve is exact.  The factorization is
// reused for the whole run; only dt changes (sub-step halving, a
// shortened final step) force a refactorization, and only the RHS is
// restamped in the steady constant-dt case.
StepOutcome linear_step(const ckt::Netlist& nl, const AssembleParams& p,
                        const TranOptions& opt, StepWorkspace& ws,
                        num::RealVector& x) {
  (void)opt;
  StepOutcome out;
  ++out.iterations;
  if (ws.have_factor && same_dt(p.dt, ws.factor_dt) &&
      ws.factor_trap == p.use_trapezoidal) {
    // Snap to the factored dt so the RHS companion terms stay exactly
    // consistent with the held factorization.
    AssembleParams ps = p;
    ps.dt = ws.factor_dt;
    ws.sys.assemble_rhs_only(nl, x, ps);
    ws.sys.note_reuse();
  } else {
    ws.sys.invalidate_base();
    ws.sys.assemble(nl, x, p);
    if (!ws.sys.factor(!ws.have_factor ? FactorReason::kInitial
                       : same_dt(p.dt, ws.factor_dt)
                           ? FactorReason::kIntegratorChange
                           : FactorReason::kDtChange)) {
      ws.have_factor = false;
      out.fail = SolveStatus::kSingularMatrix;
      out.bad_unknown = ws.sys.singular_col();
      return out;
    }
    ws.have_factor = true;
    ws.factor_dt = p.dt;
    ws.factor_trap = p.use_trapezoidal;
  }
  ws.sys.solve(ws.x_new);
  for (std::size_t i = 0; i < ws.x_new.size(); ++i) {
    if (!std::isfinite(ws.x_new[i])) {
      out.fail = SolveStatus::kNonFinite;
      out.bad_unknown = static_cast<int>(i);
      return out;
    }
  }
  x = ws.x_new;
  out.ok = true;
  return out;
}

}  // namespace

TranTelemetry& TranTelemetry::operator+=(const TranTelemetry& b) {
  FactorStats::operator+=(b);
  accepted_steps += b.accepted_steps;
  rejected_newton += b.rejected_newton;
  rejected_nonfinite += b.rejected_nonfinite;
  newton_iterations += b.newton_iterations;
  if (min_dt_used == 0.0 ||
      (b.min_dt_used != 0.0 && b.min_dt_used < min_dt_used))
    min_dt_used = b.min_dt_used;
  if (op_method.empty()) {
    op_method = b.op_method;
    op_iterations = b.op_iterations;
  }
  linear_fast_path_used |= b.linear_fast_path_used;
  budget_truncated |= b.budget_truncated;
  if (!b.budget_stop.empty()) budget_stop = b.budget_stop;
  return *this;
}

std::string TranTelemetry::summary() const {
  core::TextWriter w;
  w.add("transient telemetry:\n")
      .add("  op method            ").add(op_method.empty() ? "-" : op_method)
      .add(" (").integer(op_iterations).add(" iterations)\n")
      .add("  accepted steps       ").integer(accepted_steps).add('\n')
      .add("  rejected (newton)    ").integer(rejected_newton).add('\n')
      .add("  rejected (nonfinite) ").integer(rejected_nonfinite).add('\n')
      .add("  newton iterations    ").integer(newton_iterations).add('\n')
      .add("  factorizations       ").integer(factor_count)
      .add(" (reused ").integer(reuse_count)
      .add(linear_fast_path_used ? ", linear fast path" : "").add(")\n");
  if (std::any_of(std::begin(by_reason), std::end(by_reason),
                  [](long n) { return n > 0; })) {
    w.add("  refactor reasons    ");
    for (int i = 0; i < kFactorReasons; ++i)
      if (by_reason[i] > 0)
        w.add(' ').add(kFactorReasonNames[i]).add('=').integer(by_reason[i]);
    w.add('\n');
  }
  if (stamp_ns + factor_ns + solve_ns > 0)
    w.add("  solver time          stamp ").num(stamp_ns / 1e6)
        .add(" ms, factor ").num(factor_ns / 1e6).add(" ms, solve ")
        .num(solve_ns / 1e6).add(" ms\n");
  w.add("  min dt attempted     ").num(min_dt_used).add(" s\n");
  if (refine_count > 0)
    w.add("  iterative refinement ").integer(refine_count).add(" rounds\n");
  if (budget_truncated)
    w.add("  budget truncated     yes (").add(budget_stop).add(")\n");
  return w.take();
}

std::vector<double> TranResult::node_wave(ckt::NodeId n) const {
  std::vector<double> w;
  w.reserve(x.size());
  for (const auto& sol : x)
    w.push_back(n == ckt::kGround ? 0.0 : sol[n - 1]);
  return w;
}

std::vector<double> TranResult::diff_wave(ckt::NodeId p,
                                          ckt::NodeId n) const {
  std::vector<double> w;
  w.reserve(x.size());
  for (const auto& sol : x) {
    const double vp = p == ckt::kGround ? 0.0 : sol[p - 1];
    const double vn = n == ckt::kGround ? 0.0 : sol[n - 1];
    w.push_back(vp - vn);
  }
  return w;
}

namespace {

// Fills a kNonConvergence/kSingular/kNonFinite diag for a step that the
// recovery logic could not push past even at the smallest dt.
void fill_step_diag(const ckt::Netlist& nl, const StepOutcome& out,
                    double t, double dt, TranResult& r) {
  r.diag.status = out.fail;
  r.diag.stage = "tran";
  r.diag.residual = out.max_dx;
  r.diag.iterations = out.iterations;
  if (out.bad_unknown >= 0) {
    r.diag.unknown = unknown_label(nl, out.bad_unknown);
    r.diag.device = device_touching_unknown(nl, out.bad_unknown);
  }
  r.diag.detail = core::TextWriter()
                      .add("step rejected at t = ").num(t).add(" s, dt = ")
                      .num(dt).add(" s")
                      .take();
}

// The detail of a budget stop's diag (run_transient and the ensemble).
std::string truncation_detail(double t, long accepted_steps,
                              core::StopReason reason) {
  return core::TextWriter()
      .add("truncated at t = ").num(t).add(" s after ")
      .integer(accepted_steps).add(" accepted steps (")
      .add(core::to_string(reason)).add(")")
      .take();
}

// The options run_transient refuses: a step that is not finite and
// positive never moves the clock, and a span that is not finite or not
// forward has no end to reach.  An ok() diag when the options are valid.
SolveDiag option_diag(const TranOptions& opt) {
  core::TextWriter w;
  w.add("invalid options: ");
  if (!(std::isfinite(opt.dt) && opt.dt > 0.0))
    w.add("dt = ").num(opt.dt).add(" s is not a finite step > 0");
  else if (!(std::isfinite(opt.t_start) && std::isfinite(opt.t_stop) &&
             opt.t_start < opt.t_stop))
    w.add("span [").num(opt.t_start).add(", ").num(opt.t_stop)
        .add("] s is not finite and forward");
  else if (opt.max_halvings < 0)
    w.add("max_halvings = ").integer(opt.max_halvings).add(" is negative");
  else
    return SolveDiag::success();
  SolveDiag d;
  d.status = SolveStatus::kBadTopology;
  d.stage = "tran";
  d.detail = w.take();
  return d;
}

// Body of run_transient; the workspace lives in the caller so the
// factorization stats reach the telemetry on every return path.
TranResult run_transient_inner(ckt::Netlist& nl, const TranOptions& opt,
                               StepWorkspace& ws) {
  TranResult r;
  r.diag = option_diag(opt);
  if (!r.diag.ok()) return r;

  num::RealVector x0;
  if (opt.initial_state) {
    // Periodic restart: the caller supplies x(t_start) from an earlier
    // run (PSS shooting update, budget checkpoint); no DC solve.
    nl.assign_unknowns();  // idempotent; solve_op normally does this
    x0 = *opt.initial_state;
    r.telemetry.op_method = "initial_state";
  } else {
    OpOptions op_opt;
    op_opt.temp_k = opt.temp_k;
    op_opt.gmin = opt.gmin;
    op_opt.gshunt = opt.gshunt;
    op_opt.lint = opt.lint;
    op_opt.lint_strict = opt.lint_strict;
    op_opt.solver = opt.solver;
    op_opt.budget = opt.budget;
    op_opt.source_time = opt.t_start;
    const OpResult op = solve_op(nl, op_opt);
    if (!op.converged) {
      r.diag = op.diag;
      r.diag.stage = "op:" + (op.diag.stage.empty() ? std::string("newton")
                                                    : op.diag.stage);
      if (is_budget_stop(op.diag.status) && opt.budget) {
        r.telemetry.budget_truncated = true;
        r.telemetry.budget_stop = core::to_string(opt.budget->stop_reason());
      }
      return r;
    }
    r.telemetry.op_method = op.method;
    r.telemetry.op_iterations = op.iterations;
    x0 = op.x;
  }

  for (const auto& d : nl.devices()) d->begin_transient(x0);

  AssembleParams p;
  p.mode = ckt::AnalysisMode::kTransient;
  p.temp_k = opt.temp_k;
  p.gmin = opt.gmin;
  p.gshunt = opt.gshunt;
  p.use_trapezoidal = opt.use_trapezoidal;

  ws.sys.init(nl, opt.solver);
  // Linear fast path: no nonlinear devices means the implicit step is a
  // single exact solve, and the factorization survives the whole
  // constant-dt run.
  const bool linear = opt.linear_fast_path && ws.sys.all_linear();
  r.telemetry.linear_fast_path_used = linear;

  num::RealVector x = std::move(x0);
  double t = opt.t_start;
  if (opt.record && opt.record_after <= t) {
    r.time.push_back(t);
    r.x.push_back(x);
  }

  auto& tel = r.telemetry;
  // Partial-result exit for budget expiry / cancellation: keep the
  // waveform recorded so far, expose the last-accepted state as a
  // restart checkpoint, and diagnose the cut instead of throwing.
  auto truncate = [&](core::StopReason reason) -> TranResult& {
    r.truncated = true;
    r.t_checkpoint = t;
    r.x_checkpoint = x;
    tel.budget_truncated = true;
    tel.budget_stop = core::to_string(reason);
    r.diag = budget_stop_diag(
        reason, "tran", truncation_detail(t, tel.accepted_steps, reason));
    return r;
  };

  StepHistory hist;
  num::RealVector x_try;  // Newton candidate, reused step to step
  // Fixed base step (exactly reproducible sampling for FFT work);
  // Newton failures trigger transparent sub-stepping to the boundary,
  // restarting each retry from the last accepted checkpoint `x`.
  while (t < opt.t_stop - 0.5 * opt.dt) {
    if (opt.budget) {
      // Deterministic wall-clock skew injection: lets tests drive the
      // deadline path without sleeping (see docs/robustness.md).
      if (MSIM_FAULTPOINT("slow_step_skew"))
        opt.budget->add_skew_ms(opt.budget->max_wall_ms + 1.0);
      const core::StopReason stop = opt.budget->stop_reason();
      if (stop != core::StopReason::kNone) return truncate(stop);
    }
    double dt = opt.dt;
    const double t_target = std::min(t + opt.dt, opt.t_stop);
    int halvings = 0;
    while (t < t_target - 1e-18) {
      dt = std::min(dt, t_target - t);
      if (tel.min_dt_used == 0.0 || dt < tel.min_dt_used)
        tel.min_dt_used = dt;
      // Newton starts from the predictor, except on the linear fast
      // path (one exact solve) and once this base step has halved:
      // its retries restart from the accepted checkpoint.
      if (linear || halvings > 0)
        x_try = x;
      else
        hist.predict(x, dt, x_try);
      p.time = t + dt;
      p.dt = dt;
      // PSS restart: stamp backward-Euler until the first accepted
      // step re-anchors the capacitor current history (see
      // TranOptions::first_step_backward_euler).
      p.use_trapezoidal =
          opt.use_trapezoidal && !(opt.first_step_backward_euler &&
                                   tel.accepted_steps == 0);
      const StepOutcome out = linear
                                  ? linear_step(nl, p, opt, ws, x_try)
                                  : newton_step(nl, p, opt, ws, x_try);
      tel.newton_iterations += out.iterations;
      if (out.ok) {
        if (opt.step_hook)
          opt.step_hook->on_accepted(nl, ws.sys, p, x, x_try);
        for (const auto& d : nl.devices())
          d->accept_step(x_try, dt, p.use_trapezoidal);
        hist.accept(x, x_try, dt);
        t += dt;
        ++tel.accepted_steps;
        if (opt.budget) opt.budget->note_step();
      } else if (is_budget_stop(out.fail)) {
        // The budget ran out mid-step; the candidate is discarded and
        // the last accepted state becomes the checkpoint.
        return truncate(opt.budget ? opt.budget->stop_reason()
                                   : core::StopReason::kDeadline);
      } else {
        if (out.fail == SolveStatus::kNonFinite)
          ++tel.rejected_nonfinite;
        else
          ++tel.rejected_newton;
        if (++halvings > opt.max_halvings || 0.5 * dt < kTranDtMin) {
          fill_step_diag(nl, out, t, dt, r);
          return r;
        }
        dt *= 0.5;
      }
    }
    if (opt.record && t >= opt.record_after) {
      r.time.push_back(t);
      r.x.push_back(x);
    }
  }
  r.ok = true;
  r.t_final = t;
  r.x_final = x;
  return r;
}

}  // namespace

TranResult run_transient(ckt::Netlist& nl, const TranOptions& opt) {
  StepWorkspace ws;
  TranResult r = run_transient_inner(nl, opt, ws);
  static_cast<FactorStats&>(r.telemetry) = ws.sys.stats();
  return r;
}

std::vector<TranResult> run_transient_sweep(
    std::size_t n,
    const std::function<void(std::size_t, ckt::Netlist&, TranOptions&)>&
        configure,
    const TranSweepOptions& opt) {
  std::vector<TranResult> results(n);
  // Pre-fill every slot with a "case not run" marker: when the shared
  // budget expires, no further case starts and the untouched slots must
  // still read as structured budget diags, not empty successes.
  if (opt.budget) {
    for (auto& r : results)
      r.diag = budget_stop_diag(core::StopReason::kNone, "tran_sweep",
                                "case not run: sweep budget exhausted "
                                "before this case started");
  }
  std::vector<TranOptions> topts(n);
  run_samples(
      n, opt, /*note_steps=*/false,
      [&](std::size_t i, ckt::Netlist& nl) {
        configure(i, nl, topts[i]);
        topts[i].budget = opt.budget;
      },
      [&](std::size_t i, ckt::Netlist& nl) {
        results[i] = run_transient(nl, topts[i]);
      });
  return results;
}

// ---------------------------------------------------------------- ensemble

namespace {

// A dt cohort: the lanes of one block that still agree on position and
// step ladder.  Splits (a rejected subset halving off) and rejoins (a
// slow cohort catching up at a base-step boundary) keep per-sample step
// control exact while the common case stays one lockstep group.
struct Cohort {
  std::vector<int> mem;  // block-local lane ids, ascending
  double t = 0.0;
  double t_target = 0.0;  // end of the current base interval
  double dt = 0.0;        // current sub-step ladder value
  int halvings = 0;
};

// Everything one lockstep block owns.  Blocks are the deterministic
// scheduling unit: serial inside, parallel across, so results are
// bit-identical for any thread count.
struct EnsembleBlock {
  EnsembleSystem sys;
  const TranOptions* opt = nullptr;       // shared (validated equal)
  core::RunBudget* budget = nullptr;
  std::vector<ckt::Netlist*> lanes;
  std::vector<TranResult*> results;       // global slots, lane-indexed
  bool fell_back = false;                 // sys.init refused -> per-sample

  // Per-lane persistent state.
  std::vector<num::RealVector> x;    // last accepted state
  std::vector<StepHistory> hist;     // the states before it
  // Per-iteration scratch (lane-indexed / active-indexed).
  std::vector<num::RealVector> xs;   // Newton candidates
  std::vector<num::RealVector> xn;   // Newton updates
  std::vector<int> active, next_active;
  std::unique_ptr<bool[]> okv;

  long splits = 0, rejoins = 0;
  int max_cohorts = 0;
};

// One lockstep implicit sub-step for a cohort.  Mirrors newton_step()
// per lane -- full Newton with update damping -- over a shared
// iteration loop so every active lane's Jacobian is assembled by one
// slot replay.  Returns false on budget expiry (the caller truncates
// every lane).
bool cohort_newton(EnsembleBlock& b, const Cohort& co,
                   const AssembleParams& p, std::vector<StepOutcome>& out) {
  const TranOptions& opt = *b.opt;
  const int nl = static_cast<int>(b.lanes.size());
  out.assign(nl, StepOutcome{});
  b.sys.invalidate_lanes(co.mem.data(), static_cast<int>(co.mem.size()));

  // Per-lane predictor, skipped like run_transient's once the cohort's
  // base step has halved.
  for (int k : co.mem) {
    if (co.halvings > 0)
      b.xs[k] = b.x[k];
    else
      b.hist[k].predict(b.x[k], p.dt, b.xs[k]);
  }
  b.active = co.mem;

  for (int it = 0; it < opt.max_newton && !b.active.empty(); ++it) {
    if (b.budget) {
      // Budget parity with the per-sample path: one Newton-iteration
      // note per lane per lockstep iteration.
      for (std::size_t z = 0; z < b.active.size(); ++z)
        b.budget->note_newton_iteration();
      if (b.budget->stop_reason() != core::StopReason::kNone) return false;
    }
    for (int k : b.active) ++out[k].iterations;
    const int na = static_cast<int>(b.active.size());
    b.sys.assemble(b.active.data(), na, b.xs, p);
    std::fill(b.okv.get(), b.okv.get() + na, true);
    b.sys.update(b.active.data(), na, b.xn, b.okv.get());
    b.next_active.clear();
    for (int i = 0; i < na; ++i) {
      const int k = b.active[i];
      if (!b.okv[i]) {
        out[k].fail = SolveStatus::kSingularMatrix;
        out[k].bad_unknown = b.sys.lane_singular_col(k);
        continue;  // lane drops out; cohort partition rejects it
      }
      const num::RealVector& xk = b.xs[k];
      const num::RealVector& xnk = b.xn[k];
      double max_dx = 0.0;
      int worst = -1;
      bool converged = true;
      bool finite = true;
      for (std::size_t u = 0; u < xk.size(); ++u) {
        if (!std::isfinite(xnk[u])) {
          finite = false;
          worst = static_cast<int>(u);
          break;
        }
        const double adx = std::abs(xnk[u] - xk[u]);
        if (adx > max_dx) {
          max_dx = adx;
          worst = static_cast<int>(u);
        }
        if (adx > kNewtonVtol + kNewtonReltol * std::abs(xnk[u]))
          converged = false;
      }
      if (!finite) {
        out[k].fail = SolveStatus::kNonFinite;
        out[k].bad_unknown = worst;
        continue;
      }
      out[k].max_dx = max_dx;
      out[k].bad_unknown = worst;
      if (converged) {
        b.xs[k] = xnk;  // accepted candidate for this sub-step
        out[k].ok = true;
        continue;
      }
      const double scale =
          max_dx > opt.max_step ? opt.max_step / max_dx : 1.0;
      num::RealVector& xw = b.xs[k];
      for (std::size_t u = 0; u < xw.size(); ++u)
        xw[u] += scale * (xnk[u] - xw[u]);
      b.next_active.push_back(k);
    }
    b.active.swap(b.next_active);
  }
  // Lanes still active after max_newton keep the default
  // kNonConvergence outcome.
  return true;
}

// Runs one lockstep block to completion (or budget truncation).
void run_ensemble_block(EnsembleBlock& b) {
  const TranOptions& opt = *b.opt;
  const std::size_t nl = b.lanes.size();

  if (!b.sys.init(b.lanes)) {
    // Structure disagreement inside the block (should not happen after
    // the driver's fingerprint gate, but stays a soft failure): run the
    // block's lanes through the per-sample path.
    b.fell_back = true;
    for (std::size_t k = 0; k < nl; ++k)
      *b.results[k] = run_transient(*b.lanes[k], opt);
    return;
  }

  b.x.resize(nl);
  b.hist.resize(nl);
  b.xs.resize(nl);
  b.xn.resize(nl);
  b.okv.reset(new bool[nl]);

  // Per-lane operating point, seeded with the nominal OP (every lane
  // adopted it, see Netlist::adopt_op_seed): the perturbed samples sit
  // within millivolts of the nominal solution, so plain Newton from it
  // converges in a few iterations and skips the whole homotopy ladder
  // that dominates cold-start OP cost.
  OpOptions op_opt;
  op_opt.temp_k = opt.temp_k;
  op_opt.gmin = opt.gmin;
  op_opt.gshunt = opt.gshunt;
  op_opt.lint = opt.lint;
  op_opt.lint_strict = opt.lint_strict;
  op_opt.solver = opt.solver;
  op_opt.budget = b.budget;

  std::vector<char> running(nl, 0);
  for (std::size_t k = 0; k < nl; ++k) {
    TranResult& r = *b.results[k];
    r = TranResult{};  // clear any "case not run" pre-fill marker
    const OpResult op = solve_op(*b.lanes[k], op_opt);
    if (!op.converged) {
      r.diag = op.diag;
      r.diag.stage =
          "op:" + (op.diag.stage.empty() ? std::string("newton")
                                         : op.diag.stage);
      if (is_budget_stop(op.diag.status) && b.budget) {
        r.telemetry.budget_truncated = true;
        r.telemetry.budget_stop =
            core::to_string(b.budget->stop_reason());
      }
      continue;
    }
    r.telemetry.op_method = op.method;
    r.telemetry.op_iterations = op.iterations;
    for (const auto& d : b.lanes[k]->devices()) d->begin_transient(op.x);
    b.x[k] = op.x;
    running[k] = 1;
    if (opt.record && opt.record_after <= 0.0) {
      r.time.push_back(0.0);
      r.x.push_back(op.x);
    }
  }

  AssembleParams p;
  p.mode = ckt::AnalysisMode::kTransient;
  p.temp_k = opt.temp_k;
  p.gmin = opt.gmin;
  p.gshunt = opt.gshunt;
  p.use_trapezoidal = opt.use_trapezoidal;

  std::vector<Cohort> cohorts;
  {
    Cohort c0;
    for (std::size_t k = 0; k < nl; ++k)
      if (running[k]) c0.mem.push_back(static_cast<int>(k));
    if (c0.mem.empty()) return;
    if (!(0.0 < opt.t_stop - 0.5 * opt.dt)) {
      // Degenerate horizon: the per-sample loop body never runs.
      for (int k : c0.mem) b.results[k]->ok = true;
      return;
    }
    c0.t = 0.0;
    c0.dt = opt.dt;
    c0.t_target = std::min(opt.dt, opt.t_stop);
    cohorts.push_back(std::move(c0));
  }

  auto truncate_all = [&](core::StopReason reason) {
    for (const Cohort& co : cohorts) {
      for (int k : co.mem) {
        TranResult& r = *b.results[k];
        r.truncated = true;
        r.t_checkpoint = co.t;
        r.x_checkpoint = b.x[k];
        r.telemetry.budget_truncated = true;
        r.telemetry.budget_stop = core::to_string(reason);
        r.diag = budget_stop_diag(
            reason, "tran_ensemble",
            truncation_detail(co.t, r.telemetry.accepted_steps, reason));
      }
    }
    cohorts.clear();
  };

  // A cohort that reaches its base-step boundary records its members'
  // points, finishes lanes past t_stop, and otherwise rejoins any
  // cohort already waiting on the same fresh interval (bitwise-equal t
  // thanks to the boundary snap) or starts the next interval itself.
  auto arrive_boundary = [&](Cohort ca) {
    if (opt.record && ca.t >= opt.record_after) {
      for (int k : ca.mem) {
        b.results[k]->time.push_back(ca.t);
        b.results[k]->x.push_back(b.x[k]);
      }
    }
    if (!(ca.t < opt.t_stop - 0.5 * opt.dt)) {
      for (int k : ca.mem) b.results[k]->ok = true;
      return;
    }
    const double next_target = std::min(ca.t + opt.dt, opt.t_stop);
    for (Cohort& d : cohorts) {
      if (d.t == ca.t && d.halvings == 0 && d.dt == opt.dt &&
          d.t_target == next_target) {
        d.mem.insert(d.mem.end(), ca.mem.begin(), ca.mem.end());
        std::sort(d.mem.begin(), d.mem.end());
        ++b.rejoins;
        return;
      }
    }
    ca.dt = opt.dt;
    ca.halvings = 0;
    ca.t_target = next_target;
    cohorts.push_back(std::move(ca));
  };

  std::vector<StepOutcome> out;
  while (!cohorts.empty()) {
    b.max_cohorts =
        std::max(b.max_cohorts, static_cast<int>(cohorts.size()));
    // Deterministic schedule: smallest t first (ties broken by lowest
    // first lane), so a boundary-waiting cohort is never stepped before
    // every straggler of the previous interval has had the chance to
    // arrive and rejoin it.
    std::size_t ci = 0;
    for (std::size_t j = 1; j < cohorts.size(); ++j) {
      if (cohorts[j].t < cohorts[ci].t ||
          (cohorts[j].t == cohorts[ci].t &&
           cohorts[j].mem[0] < cohorts[ci].mem[0]))
        ci = j;
    }
    if (b.budget) {
      if (MSIM_FAULTPOINT("slow_step_skew"))
        b.budget->add_skew_ms(b.budget->max_wall_ms + 1.0);
      const core::StopReason stop = b.budget->stop_reason();
      if (stop != core::StopReason::kNone) {
        truncate_all(stop);
        return;
      }
    }
    Cohort co = std::move(cohorts[ci]);
    cohorts.erase(cohorts.begin() + static_cast<std::ptrdiff_t>(ci));

    const double dt = std::min(co.dt, co.t_target - co.t);
    for (int k : co.mem) {
      TranTelemetry& tel = b.results[k]->telemetry;
      if (tel.min_dt_used == 0.0 || dt < tel.min_dt_used)
        tel.min_dt_used = dt;
    }
    p.time = co.t + dt;
    p.dt = dt;

    if (!cohort_newton(b, co, p, out)) {
      cohorts.push_back(std::move(co));  // restore for checkpointing
      truncate_all(b.budget->stop_reason());
      return;
    }
    for (int k : co.mem)
      b.results[k]->telemetry.newton_iterations += out[k].iterations;

    std::vector<int> acc, rej;
    for (int k : co.mem) (out[k].ok ? acc : rej).push_back(k);
    if (!acc.empty() && !rej.empty()) ++b.splits;

    if (!acc.empty()) {
      for (int k : acc) {
        for (const auto& d : b.lanes[k]->devices())
          d->accept_step(b.xs[k], dt, p.use_trapezoidal);
        b.hist[k].accept(b.x[k], b.xs[k], dt);
        ++b.results[k]->telemetry.accepted_steps;
        if (b.budget) b.budget->note_step();
      }
      Cohort ca;
      ca.mem = std::move(acc);
      ca.t = co.t + dt;
      ca.t_target = co.t_target;
      ca.dt = co.dt;
      ca.halvings = co.halvings;
      if (ca.t >= ca.t_target - 1e-18) {
        ca.t = ca.t_target;  // snap: boundary times merge bit-exactly
        arrive_boundary(std::move(ca));
      } else {
        cohorts.push_back(std::move(ca));
      }
    }
    if (!rej.empty()) {
      for (int k : rej) {
        TranTelemetry& tel = b.results[k]->telemetry;
        if (out[k].fail == SolveStatus::kNonFinite)
          ++tel.rejected_nonfinite;
        else
          ++tel.rejected_newton;
      }
      if (co.halvings + 1 > opt.max_halvings || 0.5 * dt < kTranDtMin) {
        for (int k : rej)
          fill_step_diag(*b.lanes[k], out[k], co.t, dt, *b.results[k]);
      } else {
        Cohort cr;
        cr.mem = std::move(rej);
        cr.t = co.t;
        cr.t_target = co.t_target;
        cr.dt = 0.5 * dt;
        cr.halvings = co.halvings + 1;
        cohorts.push_back(std::move(cr));
      }
    }
  }
}

}  // namespace

TranEnsembleResult run_transient_ensemble(
    std::size_t n,
    const std::function<void(std::size_t, ckt::Netlist&, TranOptions&)>&
        configure,
    const TranEnsembleOptions& opt) {
  TranEnsembleResult er;
  er.results.resize(n);
  TranEnsembleTelemetry& et = er.ensemble;
  et.samples = n;
  et.lane_width = std::max(1, opt.lane_width);
  const auto t0 = std::chrono::steady_clock::now();
  auto finalize = [&] {
    et.wall_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    if (et.wall_ms > 0.0)
      et.samples_per_sec =
          static_cast<double>(n) / (et.wall_ms / 1000.0);
  };
  // Whole-run fallback: the plain sweep (sample 0 primes, every later
  // sample with the same topology adopts its cache).
  auto fall_back = [&](const char* why) {
    et.used_ensemble = false;
    et.fallback_reason = why;
    et.fallback_lanes = static_cast<int>(n);
    er.results =
        run_transient_sweep(n, configure, {opt.threads, 0, opt.budget});
    finalize();
    return std::move(er);
  };
  if (n <= 1)  // n == 1: bit-identity contract with run_transient
    return fall_back(n == 1 ? "single_sample" : "");

  // Build every sample up front (serially: configure's determinism
  // contract is per-index, but the builds are cheap and this keeps the
  // nominal-cache adoption trivially ordered).
  std::vector<std::unique_ptr<ckt::Netlist>> nls;
  std::vector<TranOptions> topts(n);
  nls.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    nls.push_back(std::make_unique<ckt::Netlist>());
    configure(i, *nls[i], topts[i]);
    topts[i].budget = opt.budget;
  }

  // Lockstep preconditions.  Any miss routes the whole run through the
  // sweep with the reason recorded in the telemetry.
  const TranOptions& base = topts[0];
  const char* why = nullptr;
  if (!option_diag(base).ok()) {
    why = "invalid_options";  // run_transient diagnoses each sample
  } else if (base.solver == SolverKind::kDense) {
    why = "dense_solver";
  } else if (base.initial_state || base.step_hook ||
             base.first_step_backward_euler) {
    why = "pss_restart";  // lockstep lanes share one DC warm start
  } else if (base.t_start != 0.0) {
    why = "t_start";  // lockstep lanes start from the OP at t = 0
  } else {
    // Every sample's budget is the ensemble's, so == compares the rest.
    for (std::size_t i = 1; i < n && !why; ++i)
      if (topts[i] != base) why = "options_differ";
  }
  if (!why) {
    const std::uint64_t fp0 = nls[0]->topology_fingerprint();
    for (std::size_t i = 1; i < n && !why; ++i)
      if (nls[i]->topology_fingerprint() != fp0) why = "topology_differs";
  }
  if (!why) {
    // One nominal OP (full homotopy ladder) primes sample 0's solver
    // cache and provides the seed every lane's OP starts from.
    OpOptions op0;
    op0.temp_k = base.temp_k;
    op0.gmin = base.gmin;
    op0.gshunt = base.gshunt;
    op0.lint = base.lint;
    op0.lint_strict = base.lint_strict;
    op0.solver = base.solver;
    op0.budget = opt.budget;
    if (!solve_op(*nls[0], op0).converged) why = "nominal_op_failed";
  }
  if (why) {
    nls.clear();
    return fall_back(why);
  }

  // Hoisted share, outside any per-trial work: every sample adopts the
  // nominal structural cache (pattern, symbolic LU, stamp slots) once,
  // and every lane -- lane 0 too, whose own solve_op never seeds itself
  // -- the nominal OP as its seed.
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) nls[i]->adopt_solver_cache(*nls[0]);
    nls[i]->adopt_op_seed(*nls[0]);
  }

  const std::vector<core::IndexBlock> blocks = core::partition_blocks(
      n, static_cast<std::size_t>(et.lane_width));
  et.blocks = static_cast<int>(blocks.size());
  if (opt.budget) {
    for (auto& r : er.results)
      r.diag = budget_stop_diag(core::StopReason::kNone, "tran_ensemble",
                                "case not run: ensemble budget exhausted "
                                "before this sample's block started");
  }

  std::vector<EnsembleBlock> ctxs(blocks.size());
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    EnsembleBlock& b = ctxs[bi];
    b.opt = &base;
    b.budget = opt.budget;
    for (std::size_t i = blocks[bi].begin; i < blocks[bi].end; ++i) {
      b.lanes.push_back(nls[i].get());
      b.results.push_back(&er.results[i]);
    }
  }
  core::parallel_for(
      opt.threads, blocks.size(),
      [&](std::size_t bi) { run_ensemble_block(ctxs[bi]); }, opt.budget);

  for (const EnsembleBlock& b : ctxs) {
    if (b.fell_back) {
      et.fallback_lanes += static_cast<int>(b.lanes.size());
      if (et.fallback_reason.empty())
        et.fallback_reason = "block_init_refused";
      continue;
    }
    et.cohort_splits += b.splits;
    et.cohort_rejoins += b.rejoins;
    et.max_cohorts = std::max(et.max_cohorts, b.max_cohorts);
    et += b.sys.stats();
  }
  et.used_ensemble = et.fallback_lanes < static_cast<int>(n);
  finalize();
  return er;
}

}  // namespace msim::an
