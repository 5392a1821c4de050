// Time-domain transient analysis.
//
// Trapezoidal (default) or backward-Euler integration with a fixed base
// step; Newton failures trigger automatic step halving and retry.  The
// fixed base step makes the FFT post-processing in the distortion benches
// trivially coherent (dt is chosen as an integer divisor of the signal
// period).
//
// Recovery contract: a step whose Newton iteration fails or produces a
// non-finite state is rejected, dt is halved down to kTranDtMin, and the
// solve restarts from the last accepted checkpoint (device integration
// state only advances on accepted steps).  Every rejection is counted in
// TranTelemetry; a run that still cannot advance reports a structured
// SolveDiag instead of silently returning a truncated waveform.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "analysis/diag.h"
#include "analysis/mna.h"
#include "analysis/sample_loop.h"
#include "circuit/netlist.h"
#include "numeric/matrix.h"

namespace msim::an {

// Observation hook fired after every ACCEPTED advance of the step loop.
// At the call, `sys` still holds
// the step's assembled Jacobian and numeric factorization -- the PSS
// shooting analysis propagates its sensitivity matrix Phi = dx(T)/dx(0)
// through RealSystem::solve_held here, riding the LUs the step already
// paid for.  `p` carries the step's actual dt and integrator (sub-
// halved retries fire once per accepted sub-step).
class TranStepHook {
 public:
  virtual ~TranStepHook() = default;
  virtual void on_accepted(const ckt::Netlist& nl, RealSystem& sys,
                           const AssembleParams& p,
                           const num::RealVector& x_prev,
                           const num::RealVector& x_new) = 0;
};

// Smallest sub-step the halving recovery tries before it gives up [s].
inline constexpr double kTranDtMin = 1e-12;

struct TranOptions {
  // The run covers [t_start, t_stop]: the initial operating point reads
  // the sources at t_start, and the first recorded point, every step's
  // time and t_checkpoint / t_final are on that clock.  run_transient
  // refuses (a kBadTopology diag, stage "tran") a dt that is not finite
  // and positive, a t_start or t_stop that is not finite, t_start >=
  // t_stop, and max_halvings < 0.
  double t_start = 0.0;
  double t_stop = 1e-3;
  double dt = 1e-6;
  double temp_k = 300.15;
  int max_newton = 80;
  double max_step = 0.5;      // Newton damping clamp
  double gmin = 1e-12;
  double gshunt = 1e-12;
  bool use_trapezoidal = true;
  // Static pre-pass selection forwarded to the initial solve_op (the
  // transient itself reuses the DC structural verdict: the dynamic
  // stamp pattern is a superset of the DC one, so a DC-clean topology
  // can not become structurally singular in transient).
  bool lint = true;
  bool lint_strict = false;
  int max_halvings = 12;      // dt reduction attempts on Newton failure
  bool record = true;         // store full solution waveforms
  // Skip storing points before this time (settling removal).
  double record_after = 0.0;

  // Linear-solver engine: the sparse path reuses one cached symbolic LU
  // across every Newton iteration of every time step.
  SolverKind solver = SolverKind::kSparse;

  // Nonlinear implicit steps run full Newton: every iteration factors.
  // When the netlist has no nonlinear devices the implicit step is a
  // plain linear solve: stamp only the RHS and reuse one factorization
  // for the whole constant-dt run.
  bool linear_fast_path = true;

  // Optional run budget / cancel hook, polled at timestep and Newton-
  // iteration granularity (and forwarded to the initial solve_op).  On
  // expiry the run returns the waveform accepted so far with
  // `truncated = true` plus the last-accepted checkpoint state -- a
  // structured partial result, never an exception.  Null = unlimited.
  core::RunBudget* budget = nullptr;

  // --- Periodic-restart support (PSS shooting; see analysis/pss.h) ---
  // Start the run from this state at t_start instead of solving a DC
  // operating point (device integration history is reset onto it via
  // begin_transient, exactly as for an OP).  The pointee must outlive
  // the run.
  const num::RealVector* initial_state = nullptr;
  // Stamp the run's FIRST accepted step backward-Euler, trapezoidal
  // after.  BE never reads the capacitor current history that
  // begin_transient zeroed, and accept_step re-anchors that history
  // consistently with the BE companion, so a restart from an arbitrary
  // mid-trajectory state injects no trapezoidal ringing -- and the whole
  // run becomes a pure function of the starting state, which is what
  // lets PSS Newton-iterate on the period map x(0) -> x(T).
  bool first_step_backward_euler = false;
  // Per-accepted-step observation hook (borrowed, must outlive the
  // run).  Null = none.
  TranStepHook* step_hook = nullptr;

  bool operator==(const TranOptions&) const = default;
};

// Step-rejection and effort accounting for one transient run.  The
// FactorStats base is the run's RealSystem's (all zero for a lane of a
// lockstep ensemble, whose solver effort is not separable per lane and
// is summed in TranEnsembleTelemetry instead).
struct TranTelemetry : FactorStats {
  long accepted_steps = 0;
  long rejected_newton = 0;     // failure-driven dt cuts (Newton stalled)
  long rejected_nonfinite = 0;  // NaN/Inf state rejections
  long newton_iterations = 0;   // total Newton iterations over the run
  double min_dt_used = 0.0;     // smallest dt ever attempted (0 = none)
  // Initial operating point: homotopy method and iteration count.
  std::string op_method;
  int op_iterations = 0;
  bool linear_fast_path_used = false;
  // Robustness accounting: whether a RunBudget / CancelToken cut the
  // run short (and which limit: "deadline", "iterations", "steps",
  // "cancelled").
  bool budget_truncated = false;
  std::string budget_stop;

  // Sums the counters of a later run of the same analysis (PSS: the
  // pre-roll and every shot).  Keeps the smallest nonzero min_dt_used,
  // the first run's op_method/op_iterations, the OR of the flags and
  // the last non-empty budget_stop.
  TranTelemetry& operator+=(const TranTelemetry& b);

  // Multi-line human-readable summary (CLI / log output);
  // serve::tran_stats_json renders the JSON line (msim_cli --tran-stats).
  std::string summary() const;
};

struct TranResult {
  bool ok = false;
  SolveDiag diag;           // structured failure diagnosis (ok() if ok)
  TranTelemetry telemetry;  // step accounting, also filled on success
  std::vector<double> time;
  std::vector<num::RealVector> x;
  // Partial-result contract (budget / cancel): when a RunBudget expires
  // mid-run, `ok` stays false, `truncated` is true, `time`/`x` hold the
  // recorded waveform up to the cut, and the checkpoint below is the
  // last ACCEPTED state (which may be ahead of the last recorded point
  // when record_after skipped it) -- a restart handle, not an error.
  bool truncated = false;
  double t_checkpoint = 0.0;
  num::RealVector x_checkpoint;
  // Final accepted state and time (valid when ok; set regardless of
  // `record`, so boundary-map consumers like the PSS shooting loop read
  // x(t_stop) without digging through the recorded waveform).
  double t_final = 0.0;
  num::RealVector x_final;

  // Waveform of one node voltage.
  std::vector<double> node_wave(ckt::NodeId n) const;
  // Differential waveform v(p) - v(n).
  std::vector<double> diff_wave(ckt::NodeId p, ckt::NodeId n) const;
};

// Runs a transient from the DC operating point at t_start (or from
// initial_state).  Never throws on solver failure or invalid options:
// inspect result.diag.
TranResult run_transient(ckt::Netlist& nl, const TranOptions& opt);

// Batched waveform sweeps (gain steps, amplitude sweeps for HD curves,
// MC samples): threads, chunk and a budget shared by the whole sweep.
using TranSweepOptions = SampleOptions;

// Runs case i by calling configure(i, nl, opt) on a fresh netlist and
// default options, then run_transient, through run_samples: every case
// whose topology fingerprint matches case 0's adopts its solver cache.
// Case i's result depends only on i (configure must not mutate shared
// state), so the vector is bit-identical at any thread count.  Case 0
// and any case with a topology of its own match a standalone
// run_transient bit for bit; an adopting case can differ in the last
// ulps (its pivot order was chosen on case 0's values).  The budget is
// forwarded into every case, so an expiry truncates in-flight cases;
// cases never started get a kBudgetExceeded "case not run" diag.
std::vector<TranResult> run_transient_sweep(
    std::size_t n,
    const std::function<void(std::size_t, ckt::Netlist&, TranOptions&)>&
        configure,
    const TranSweepOptions& opt = {});

// ---------------------------------------------------------------- ensemble

// Ensemble transient: N perturbed samples of ONE topology advanced in
// lockstep.  Samples are grouped into blocks of `lane_width` lanes;
// within a block one EnsembleSystem assembles all lanes' Jacobians with
// a single slot-table replay (lane-blocked values, device-outer /
// lane-inner kernels) and each lane keeps its own numeric LU over the
// shared symbolic analysis.  One nominal operating point is solved
// first and warm-starts every lane's OP.  Per-sample step halving is
// preserved by dt COHORTS: lanes still agreeing on dt step
// together; a lane whose sub-step is rejected splits off with its own
// halving ladder and rejoins at the next base-step boundary, so one
// stiff sample never serializes the rest.
struct TranEnsembleOptions {
  int threads = 1;    // 0 = auto; parallelism is across blocks
  int lane_width = 8; // lanes per lockstep block (the deterministic unit)
  // Shared budget over the whole ensemble; expiry truncates every
  // in-flight lane with its own checkpoint (see TranResult) and marks
  // never-started blocks' samples with "case not run" diags.
  core::RunBudget* budget = nullptr;
};

// Ensemble-level accounting (the per-lane TranTelemetry lives in each
// sample's TranResult).  The FactorStats base sums the solver effort of
// every lockstep block (per-lane shares are not separable in lockstep
// assembly).
struct TranEnsembleTelemetry : FactorStats {
  std::size_t samples = 0;
  int blocks = 0;
  int lane_width = 0;
  bool used_ensemble = false;   // false = whole run fell back per-sample
  std::string fallback_reason;  // "" when the lockstep engine ran
  int fallback_lanes = 0;       // samples run per-sample (block fallback)
  long cohort_splits = 0;
  long cohort_rejoins = 0;
  int max_cohorts = 0;  // peak simultaneous cohorts in any block
  double wall_ms = 0.0;
  double samples_per_sec = 0.0;
};

struct TranEnsembleResult {
  std::vector<TranResult> results;  // one per sample, index-stable
  TranEnsembleTelemetry ensemble;
};

// Runs sample i by calling configure(i, nl, opt) on a fresh netlist,
// exactly like run_transient_sweep, then advances all samples in
// lockstep.  Whenever a lockstep precondition fails -- differing
// TranOptions across samples, options run_transient refuses, the dense
// solver, a PSS restart, a t_start other than 0, topology disagreement,
// n == 1 (bit-identity contract with run_transient) or a failed nominal
// OP -- the whole run is
// run_transient_sweep(n, configure) instead, with the reason in the
// telemetry; a block whose lockstep set-up is refused runs its lanes
// per sample.  Same determinism contract as the sweep:
// results are bit-identical for any thread count (blocks are the
// scheduling unit and each block is serial inside).
TranEnsembleResult run_transient_ensemble(
    std::size_t n,
    const std::function<void(std::size_t, ckt::Netlist&, TranOptions&)>&
        configure,
    const TranEnsembleOptions& opt = {});

}  // namespace msim::an
