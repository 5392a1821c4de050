// Periodic steady state by shooting-Newton.
//
// The distortion rigs only care about ONE steady tone period, but a
// plain transient must integrate hundreds of settle periods before the
// capacitor transients die out.  Shooting solves the periodicity
// condition directly: integrate one period T = 1/f0 with the existing
// transient engine, build the sensitivity matrix Phi = dx(T)/dx(0)
// alongside it, and Newton-iterate on the boundary map
//
//     F(x0) = x(T; x0) - x0 = 0   =>   (I - Phi) dx0 = x(T) - x0.
//
// Phi is propagated column-by-column through RealSystem::solve_held
// against the per-step LUs the transient loop already factored, so the
// sensitivity ride-along costs zero extra factorizations on a
// constant-dt run (see TranStepHook).  The per-step history Jacobian M
// (the capacitor/inductor companion terms, the only dt-dependent part
// of the MNA matrix) is extracted once, device-agnostically, as the
// difference of two assemblies at dt and dt/2 -- every dt-independent
// stamp cancels exactly.
//
// Columns of Phi are nonzero only for "dynamic" unknowns (structural
// nonzero columns of M): a starting state enters the next period solely
// through the device integration history primed by begin_transient, so
// the dense Newton boundary system is m x m with m = dynamic unknowns,
// typically far smaller than the full MNA dimension.
//
// Only the periods whose results are used get integrated.  A cold run
// first integrates a pre-roll: the last kPssPreRollPeriods of a period,
// t in [0.75 T, T] on the step grid, started from the DC operating
// point with the sources at their values at its start, so it ends at
// the tone's phase 0 where every shot starts.  The first shot after it carries no Phi.
// If that shot is already periodic it is the result (1.25 periods, no
// Phi solve); if not, it counts as a settle period and every later
// shot carries Phi for the boundary Newton update.  A warm start
// (PssOptions::x_warm) skips the pre-roll and carries Phi from its
// first shot.  Every shot integrates t in [0, T], so the result's time
// axis and phase do not depend on the pre-roll.
//
// Restart purity: each shot runs with TranOptions::initial_state plus
// first_step_backward_euler, which makes x(T) a pure function of x0
// (see transient.h).  For a linear circuit the period map is affine, so
// one Newton update lands on the periodic orbit to machine precision.
//
// Known approximation: the trapezoidal inductor companion carries a
// v_prev term whose sensitivity is folded into the cap-style recurrence
// rather than tracked exactly; this only slows shooting convergence
// (the periodicity residual always uses actually-integrated states and
// is exact).  The paper's rigs are inductor-free.
#pragma once

#include <string>
#include <vector>

#include "analysis/transient.h"
#include "signal/meter.h"

namespace msim::an {

// Frequency of the deck's single periodic tone: every non-DC source
// must be the same undamped, undelayed sine (any pulse/PWL source, a
// damped or delayed sine, or two different sine frequencies make the
// forcing non-periodic over one candidate period).  Returns 0 when no
// such tone exists -- callers then pass PssOptions::f0_hz explicitly.
double single_tone_hz(const ckt::Netlist& nl);

// Newton updates on the boundary map before shooting gives up.
inline constexpr int kPssMaxShooting = 8;
// Pre-roll length of a cold run, in periods (rounded up to whole
// steps).  On the class-AB buffer at 0.15, 0.3 and 1.0 V per side it
// leaves a first-shot residual of 4e-14 to 1e-13 against a 1.4e-6
// tolerance.  Shorter ones cost margin and robustness: at 0.1 periods
// the 0.15 V buffer's operating point needs gmin stepping (993 Newton
// iterations), and at 0.05 the 1.0 V buffer's first shot fails.
inline constexpr double kPssPreRollPeriods = 0.25;
// Periodicity tolerance: a shot is periodic when
//   max|x(T) - x(0)| <= kPssTolAbs + kPssTolRel * max|x(T)|.
inline constexpr double kPssTolAbs = 1e-7;
inline constexpr double kPssTolRel = 1e-6;

struct PssOptions {
  // Tone frequency; 0 = auto-detect via single_tone_hz(nl).  NaN or
  // negative is refused with an "invalid options" diag.
  double f0_hz = 0.0;
  // Samples per period (dt = 1/(f0 * spp), exactly coherent).  0 =
  // derive from tran.dt via sig::plan_coherent_capture; tran.dt must then
  // be finite and > 0, else the "invalid options" diag.
  int samples_per_period = 0;
  // Engine knobs forwarded to every integration (t_start / t_stop / dt /
  // record / initial_state / step_hook are overridden by the PSS driver;
  // solver, Newton limits, temp_k etc. apply as usual).  tran.budget
  // covers the whole solve: expiry returns a structured partial with the
  // best boundary state so far as a restart handle (see PssResult).
  TranOptions tran;
  // Warm-start boundary state (e.g. a prior PssResult::x0 or a budget
  // checkpoint); skips the pre-roll.  Borrowed, must outlive the call.
  const num::RealVector* x_warm = nullptr;
};

// Effort accounting for one PSS solve.
struct PssTelemetry {
  int shooting_iterations = 0;     // Newton boundary updates applied
  double periods_integrated = 0.0; // pre-roll + one per shot (the
                                   // headline number settle-and-FFT is
                                   // compared on)
  double residual = 0.0;           // final max|x(T) - x(0)|
  std::vector<double> residual_history;  // one entry per completed shot
  int unknowns = 0;
  int dynamic_unknowns = 0;        // Phi columns actually propagated
                                   // (0 when no shot carried Phi)
  long phi_solve_count = 0;        // solve_held substitutions for Phi
  long phi_ns = 0;  // Phi ride-along cost (M build + solves + matvecs),
                    // disjoint from the stamp/factor/solve breakdown in
                    // `tran` below
  TranTelemetry tran;              // aggregated over pre-roll + all shots
  // Multi-line human-readable summary (CLI / log output);
  // serve::pss_stats_json renders the JSON line (msim_cli --pss
  // --tran-stats).
  std::string summary() const;
};

struct PssResult {
  bool ok = false;
  SolveDiag diag;           // stage "pss", "pss_prefix" (the pre-roll),
                            // "pss_period", "pss_shooting" or
                            // "pss_boundary"
  PssTelemetry telemetry;
  double f0_hz = 0.0;
  double dt = 0.0;          // coherent step actually used
  // Converged periodic boundary state x(0) = x(T).
  num::RealVector x0;
  // Exactly one steady period: samples_per_period points covering
  // t in [0, T) (the duplicate t = T endpoint is dropped, so feeding a
  // node_wave straight into sig::measure_harmonics is exactly coherent).
  std::vector<double> time;
  std::vector<num::RealVector> x;
  // Partial-result contract (budget / cancel), mirroring TranResult:
  // `x_checkpoint` is the last accepted state of the interrupted
  // integration -- pass it back as PssOptions::x_warm to resume.
  bool truncated = false;
  double t_checkpoint = 0.0;  // time within the interrupted run (a
                              // pre-roll's clock ends at T)
  num::RealVector x_checkpoint;

  // Waveform of one node voltage over the steady period.
  std::vector<double> node_wave(ckt::NodeId n) const;
  // Differential waveform v(p) - v(n).
  std::vector<double> diff_wave(ckt::NodeId p, ckt::NodeId n) const;
  // Harmonic measurement of a steady-period waveform at the tone.
  sig::HarmonicAnalysis harmonics(const std::vector<double>& wave,
                                  int n_harmonics = 9) const;
};

// Solves for the periodic steady state of `nl` under its single tone.
// Never throws on solver failure: inspect result.diag.
PssResult run_pss_shooting(ckt::Netlist& nl, const PssOptions& opt);

}  // namespace msim::an
