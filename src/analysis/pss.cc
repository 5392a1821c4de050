#include "analysis/pss.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

#include "core/text_writer.h"
#include "devices/sources.h"
#include "numeric/lu.h"

namespace msim::an {

namespace {

// ------------------------------------------------------------ Phi ride-along
//
// TranStepHook propagating the period-map sensitivity Phi = dx(t)/dx(0)
// through the transient loop's own LUs.  Derivation (capacitor shown;
// the inductor current history follows the same shape):
//
// The step-k MNA system is J_k x_k = b_k where the only x0-dependent
// part of b_k is the integration history: per cap, the companion
// current ieq_k = geq * v_{k-1} + i_{k-1} (trapezoidal) or
// geq * v_{k-1} (backward Euler).  The geq * v_prev part of
// db_k/dx0 is exactly s_k * M * Phi_{k-1}, where M is the history
// Jacobian at the base step (M entries scale as 1/dt, hence the scale
// s_k = dt_base / dt_k for sub-halved retries, and the BE companion is
// half the trapezoidal one).  The i_prev part is the history-current
// sensitivity I_{k-1}, advanced by differentiating accept_step.  With
// R_k = M * Phi_k cached, one accepted step advances
//
//   trapezoidal:  W = s*R_{k-1} + I_{k-1};  Phi_k = J_k^{-1} W
//                 I_k = s*R_k - W
//   backwd Euler: W = 0.5*s*R_{k-1};        Phi_k = J_k^{-1} W
//                 I_k = 0.5*s*R_k - W
//
// with exact initial data Phi_0 = identity restricted to the dynamic
// columns and I_0 = 0 (begin_transient zeroes the current history).
// J_k^{-1} is the factorization the step left held: its last Newton
// iteration's, assembled one update before the converged state (the
// difference only perturbs the shooting convergence RATE -- the
// periodicity residual uses actually-integrated states and stays
// exact).
class PhiPropagator final : public TranStepHook {
 public:
  explicit PhiPropagator(double dt_base) : dt_base_(dt_base) {}

  // Resets Phi to the identity before a period integration that carries
  // the hook.  The M build itself is lazy (first accepted step).
  void begin_run() {
    if (built_) reset_columns();
  }

  int unknowns() const { return n_; }
  int dynamic_unknowns() const { return static_cast<int>(dyn_.size()); }
  const std::vector<int>& dynamic_cols() const { return dyn_; }
  // Full n-vector column of Phi for dynamic unknown dynamic_cols()[j].
  const num::RealVector& column(std::size_t j) const { return phi_[j]; }
  long solve_count() const { return solves_; }
  long phi_ns() const { return ns_; }

  void on_accepted(const ckt::Netlist& nl, RealSystem& sys,
                   const AssembleParams& p, const num::RealVector& x_prev,
                   const num::RealVector& x_new) override {
    (void)x_prev;
    const auto t0 = std::chrono::steady_clock::now();
    if (!built_) build(nl, x_new, p);
    const std::size_t m = dyn_.size();
    const std::size_t n = static_cast<std::size_t>(n_);
    if (m != 0) {
      const double s = dt_base_ / p.dt;
      const bool trap = p.use_trapezoidal;
      const double cr = trap ? s : 0.5 * s;  // I_k = cr*R_k - W
      for (std::size_t j = 0; j < m; ++j) {
        const num::RealVector& rj = r_[j];
        num::RealVector& ij = ihist_[j];
        w_.resize(n);
        if (trap) {
          for (std::size_t i = 0; i < n; ++i) w_[i] = s * rj[i] + ij[i];
        } else {
          for (std::size_t i = 0; i < n; ++i) w_[i] = 0.5 * s * rj[i];
        }
        sys.solve_held(w_, phi_[j]);
        ++solves_;
        m_.multiply(phi_[j], rnew_);
        for (std::size_t i = 0; i < n; ++i) ij[i] = cr * rnew_[i] - w_[i];
        std::swap(r_[j], rnew_);
      }
    }
    ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0)
               .count();
  }

 private:
  // Extracts M as the difference of two same-x assemblies at dt and
  // dt/2: every dt-independent stamp (resistive, nonlinear, gshunt,
  // source) cancels bit-exactly, leaving geq(dt/2) - geq(dt) = geq(dt)
  // on the cap pattern (and -2L/dt on inductor branch diagonals) --
  // i.e. M itself, with no per-device sensitivity code anywhere.
  void build(const ckt::Netlist& nl, const num::RealVector& x,
             const AssembleParams& p) {
    const num::SparsityPattern pat = mna_pattern(nl);
    num::RealSparseMatrix a(pat), b(pat);
    num::RealVector rhs_scratch;
    AssembleParams pa = p;
    pa.dt = dt_base_;
    pa.use_trapezoidal = true;
    assemble_real(nl, x, pa, a, rhs_scratch);
    AssembleParams pb = pa;
    pb.dt = 0.5 * dt_base_;
    assemble_real(nl, x, pb, b, rhs_scratch);
    m_ = std::move(a);
    auto& mv = m_.values();
    const auto& bv = b.values();
    for (std::size_t k = 0; k < mv.size(); ++k) mv[k] = bv[k] - mv[k];
    n_ = m_.rows();

    // Dynamic unknowns = structural nonzero columns of M: the only
    // channels through which x0 reaches the next period.
    std::vector<int> col_of(static_cast<std::size_t>(n_), -1);
    const auto& rp = m_.row_ptr();
    const auto& cols = m_.cols();
    for (int r = 0; r < n_; ++r)
      for (int k = rp[static_cast<std::size_t>(r)];
           k < rp[static_cast<std::size_t>(r) + 1]; ++k)
        if (mv[static_cast<std::size_t>(k)] != 0.0)
          col_of[static_cast<std::size_t>(cols[static_cast<std::size_t>(k)])] =
              0;
    for (int c = 0; c < n_; ++c)
      if (col_of[static_cast<std::size_t>(c)] == 0) {
        col_of[static_cast<std::size_t>(c)] = static_cast<int>(dyn_.size());
        dyn_.push_back(c);
      }

    // Dense restriction of M to the dynamic columns: the R_0 seed of
    // every run (R_0 column j = M * e_dyn[j]).
    m_dyn_.assign(dyn_.size(),
                  num::RealVector(static_cast<std::size_t>(n_), 0.0));
    for (int r = 0; r < n_; ++r)
      for (int k = rp[static_cast<std::size_t>(r)];
           k < rp[static_cast<std::size_t>(r) + 1]; ++k) {
        const int j = col_of[static_cast<std::size_t>(
            cols[static_cast<std::size_t>(k)])];
        if (j >= 0)
          m_dyn_[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)] +=
              mv[static_cast<std::size_t>(k)];
      }

    built_ = true;
    reset_columns();
  }

  void reset_columns() {
    const std::size_t m = dyn_.size();
    const std::size_t n = static_cast<std::size_t>(n_);
    phi_.assign(m, num::RealVector(n, 0.0));
    ihist_.assign(m, num::RealVector(n, 0.0));
    r_ = m_dyn_;
    for (std::size_t j = 0; j < m; ++j)
      phi_[j][static_cast<std::size_t>(dyn_[j])] = 1.0;
  }

  double dt_base_;
  bool built_ = false;
  int n_ = 0;
  num::RealSparseMatrix m_;          // history Jacobian M at dt_base
  std::vector<int> dyn_;             // dynamic (structural M) columns
  std::vector<num::RealVector> m_dyn_;   // M restricted to dyn_ columns
  std::vector<num::RealVector> phi_;     // Phi columns (full n-vectors)
  std::vector<num::RealVector> r_;       // R = M * Phi per column
  std::vector<num::RealVector> ihist_;   // history-current sensitivity I
  num::RealVector w_, rnew_;             // per-step scratch
  long solves_ = 0;
  long ns_ = 0;
};

// The options run_pss_shooting refuses: a tone frequency that is NaN
// or negative, and -- when the step is derived from tran.dt -- a dt that
// is not finite and > 0, which would otherwise snap to a default step
// unannounced.  An ok() diag when the options are valid.
SolveDiag option_diag(const PssOptions& opt) {
  core::TextWriter w;
  w.add("invalid options: ");
  if (std::isnan(opt.f0_hz) || opt.f0_hz < 0.0)
    w.add("f0_hz = ").num(opt.f0_hz).add(" is not >= 0 (0 = auto-detect)");
  else if (opt.samples_per_period <= 0 &&
           !(std::isfinite(opt.tran.dt) && opt.tran.dt > 0.0))
    w.add("tran.dt = ").num(opt.tran.dt).add(" s is not a finite step > 0");
  else
    return SolveDiag::success();
  SolveDiag d;
  d.status = SolveStatus::kBadTopology;
  d.stage = "pss";
  d.detail = w.take();
  return d;
}

// Propagates a failed/truncated integration into the PSS result,
// prefixing the analysis phase onto whatever stage the engine reported.
PssResult& fail_from(PssResult& res, TranResult&& tr, const char* stage) {
  res.diag = std::move(tr.diag);
  res.diag.stage = res.diag.stage.empty()
                       ? std::string(stage)
                       : std::string(stage) + ":" + res.diag.stage;
  if (tr.truncated) {
    res.truncated = true;
    res.t_checkpoint = tr.t_checkpoint;
    res.x_checkpoint = std::move(tr.x_checkpoint);
  }
  return res;
}

}  // namespace

double single_tone_hz(const ckt::Netlist& nl) {
  double f = 0.0;
  for (const auto& d : nl.devices()) {
    const dev::Waveform* w = nullptr;
    if (const auto* v = dynamic_cast<const dev::VSource*>(d.get()))
      w = &v->waveform();
    else if (const auto* i = dynamic_cast<const dev::ISource*>(d.get()))
      w = &i->waveform();
    if (!w) continue;
    switch (w->kind()) {
      case dev::Waveform::Kind::kDc:
        break;
      case dev::Waveform::Kind::kSin:
        if (w->sine_ampl() == 0.0) break;  // degenerate DC
        // Damping and delay make value(t) non-periodic on [0, T).
        if (w->sine_damping() != 0.0 || w->sine_delay() != 0.0) return 0.0;
        if (f > 0.0 && f != w->sine_freq()) return 0.0;
        f = w->sine_freq();
        break;
      default:
        return 0.0;  // pulse / PWL forcing: not a single tone
    }
  }
  return f;
}

std::string PssTelemetry::summary() const {
  return core::TextWriter()
      .add("pss: ").integer(shooting_iterations)
      .add(" shooting update(s), ").num(periods_integrated)
      .add(" period(s) integrated, residual ").num(residual)
      .add("\npss: ").integer(dynamic_unknowns).add('/').integer(unknowns)
      .add(" dynamic unknown(s), ").integer(phi_solve_count)
      .add(" Phi solve(s), ").num(static_cast<double>(phi_ns) / 1e6)
      .add(" ms Phi ride-along\n").add(tran.summary())
      .take();
}

std::vector<double> PssResult::node_wave(ckt::NodeId n) const {
  std::vector<double> w(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    w[i] = n == ckt::kGround ? 0.0 : x[i][static_cast<std::size_t>(n - 1)];
  return w;
}

std::vector<double> PssResult::diff_wave(ckt::NodeId p, ckt::NodeId n) const {
  auto v = [](const num::RealVector& xs, ckt::NodeId nd) {
    return nd == ckt::kGround ? 0.0 : xs[static_cast<std::size_t>(nd - 1)];
  };
  std::vector<double> w(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) w[i] = v(x[i], p) - v(x[i], n);
  return w;
}

sig::HarmonicAnalysis PssResult::harmonics(const std::vector<double>& wave,
                                           int n_harmonics) const {
  return sig::measure_harmonics(wave, dt, f0_hz, n_harmonics);
}

PssResult run_pss_shooting(ckt::Netlist& nl, const PssOptions& opt) {
  PssResult res;
  res.diag = option_diag(opt);
  if (!res.diag.ok()) return res;
  const double f0 = opt.f0_hz > 0.0 ? opt.f0_hz : single_tone_hz(nl);
  res.f0_hz = f0;
  if (f0 <= 0.0) {
    res.diag.status = SolveStatus::kBadTopology;
    res.diag.stage = "pss";
    res.diag.detail =
        "no single periodic tone detected; set PssOptions::f0_hz";
    return res;
  }
  const double period = 1.0 / f0;
  int spp = opt.samples_per_period;
  if (spp <= 0)
    spp = sig::plan_coherent_capture(f0, opt.tran.dt).samples_per_period;
  if (spp <= 0) {
    // A step so small against the period that the per-period step count
    // overflows: integrating it would never finish.
    res.diag.status = SolveStatus::kBadTopology;
    res.diag.stage = "pss";
    res.diag.detail = core::TextWriter()
                          .add("tone period ").num(period)
                          .add(" s needs more than ")
                          .integer(std::numeric_limits<int>::max())
                          .add(" steps of ").num(opt.tran.dt).add(" s")
                          .take();
    return res;
  }
  const double dt = period / spp;
  res.dt = dt;

  TranOptions base = opt.tran;
  base.t_start = 0.0;
  base.dt = dt;
  base.record = false;
  base.record_after = 0.0;
  base.initial_state = nullptr;
  base.first_step_backward_euler = false;
  base.step_hook = nullptr;

  PssTelemetry& tel = res.telemetry;

  // Warm start: either the caller's boundary state, or a pre-roll over
  // the last kPssPreRollPeriods of a period (rounded up to whole steps)
  // from the DC operating point at its first instant.  It ends at T,
  // the tone's phase 0, where every shot starts.  It runs on
  // [T - n*dt, T], not [-n*dt, 0]: a sine reads its offset before t = 0
  // (Waveform::value), so a negative start would drive it with DC.
  num::RealVector x0;
  if (opt.x_warm) {
    x0 = *opt.x_warm;
  } else {
    const int n_pre = static_cast<int>(std::ceil(kPssPreRollPeriods * spp));
    TranOptions pre = base;
    pre.t_start = period - n_pre * dt;
    pre.t_stop = period;
    TranResult tr = run_transient(nl, pre);
    tel.tran += tr.telemetry;
    if (!tr.ok) {
      if (tr.truncated)
        tel.periods_integrated += (tr.t_checkpoint - pre.t_start) / period;
      return fail_from(res, std::move(tr), "pss_prefix");
    }
    tel.periods_integrated += static_cast<double>(n_pre) / spp;
    x0 = std::move(tr.x_final);
  }
  tel.unknowns = static_cast<int>(x0.size());

  PhiPropagator phi(dt);
  TranOptions shot = base;
  shot.t_stop = period;
  shot.record = true;
  shot.initial_state = &x0;
  shot.first_step_backward_euler = true;

  // The first shot after the pre-roll carries no Phi: when it is
  // already periodic (the usual case) it is the result and Phi would go
  // unread; when it is not, it counts as one settle period.  The
  // hook only reads each step's held LU, so a shot's states are the
  // same bits with or without it.  A warm start (budget checkpoint) is
  // not periodic yet, so it carries Phi from its first shot.
  bool carry_phi = opt.x_warm != nullptr;
  int iter = 0;  // boundary updates applied
  num::RealVector delta(x0.size());
  for (;;) {
    shot.step_hook = carry_phi ? &phi : nullptr;
    if (carry_phi) phi.begin_run();
    TranResult tr = run_transient(nl, shot);
    tel.tran += tr.telemetry;
    tel.phi_solve_count = phi.solve_count();
    tel.phi_ns = phi.phi_ns();
    tel.dynamic_unknowns = phi.dynamic_unknowns();
    if (!tr.ok) {
      tel.periods_integrated += tr.t_checkpoint / period;
      // The best boundary state so far doubles as the restart handle
      // when the engine didn't get far enough to leave its own.
      if (tr.truncated && tr.x_checkpoint.empty()) tr.x_checkpoint = x0;
      return fail_from(res, std::move(tr), "pss_period");
    }
    tel.periods_integrated += 1.0;

    double resid = 0.0, xmax = 0.0;
    std::size_t worst = 0;
    for (std::size_t i = 0; i < x0.size(); ++i) {
      const double d = std::abs(tr.x_final[i] - x0[i]);
      if (d > resid) {
        resid = d;
        worst = i;
      }
      xmax = std::max(xmax, std::abs(tr.x_final[i]));
    }
    tel.residual = resid;
    tel.residual_history.push_back(resid);

    if (resid <= kPssTolAbs + kPssTolRel * xmax) {
      res.ok = true;
      res.x0 = x0;
      // Drop the duplicate t = T endpoint: the remaining samples cover
      // exactly one period, coherently.
      const std::size_t keep = tr.time.size() - 1;
      res.time.assign(tr.time.begin(),
                      tr.time.begin() + static_cast<std::ptrdiff_t>(keep));
      res.x.assign(tr.x.begin(),
                   tr.x.begin() + static_cast<std::ptrdiff_t>(keep));
      return res;
    }
    if (!carry_phi) {
      x0 = std::move(tr.x_final);
      carry_phi = true;
      continue;
    }
    if (iter >= kPssMaxShooting) {
      res.diag.status = SolveStatus::kNonConvergence;
      res.diag.stage = "pss_shooting";
      res.diag.residual = resid;
      res.diag.iterations = iter;
      res.diag.unknown = unknown_label(nl, static_cast<int>(worst));
      res.diag.detail = core::TextWriter()
                            .add("periodicity residual ").num(resid)
                            .add(" after ").integer(iter)
                            .add(" boundary update(s)")
                            .take();
      return res;
    }

    // Newton on the boundary map: (I - Phi_DD) dx_D = delta_D on the
    // dynamic unknowns, then dx = delta + Phi_D dx_D everywhere (Phi
    // columns outside D are structurally zero).  m = 0 degenerates to
    // plain fixed-point iteration x0 <- x(T).
    for (std::size_t i = 0; i < x0.size(); ++i)
      delta[i] = tr.x_final[i] - x0[i];
    const int m = phi.dynamic_unknowns();
    if (m > 0) {
      const auto& dyn = phi.dynamic_cols();
      num::RealMatrix bmat(static_cast<std::size_t>(m),
                           static_cast<std::size_t>(m));
      for (int i = 0; i < m; ++i)
        for (int j = 0; j < m; ++j)
          bmat(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
              (i == j ? 1.0 : 0.0) -
              phi.column(static_cast<std::size_t>(j))
                  [static_cast<std::size_t>(dyn[static_cast<std::size_t>(i)])];
      num::RealLu blu;
      blu.factor(bmat);
      if (blu.singular()) {
        res.diag.status = SolveStatus::kSingularMatrix;
        res.diag.stage = "pss_boundary";
        res.diag.unknown = unknown_label(
            nl, dyn[static_cast<std::size_t>(blu.singular_col())]);
        res.diag.detail = "(I - Phi) boundary system singular";
        return res;
      }
      num::RealVector dd(static_cast<std::size_t>(m));
      for (int i = 0; i < m; ++i)
        dd[static_cast<std::size_t>(i)] =
            delta[static_cast<std::size_t>(dyn[static_cast<std::size_t>(i)])];
      num::RealVector sol(static_cast<std::size_t>(m));
      blu.solve(dd, sol);
      for (int j = 0; j < m; ++j) {
        const double a = sol[static_cast<std::size_t>(j)];
        if (a == 0.0) continue;
        const auto& col = phi.column(static_cast<std::size_t>(j));
        for (std::size_t i = 0; i < delta.size(); ++i)
          delta[i] += a * col[i];
      }
    }
    for (std::size_t i = 0; i < x0.size(); ++i) x0[i] += delta[i];
    tel.shooting_iterations = ++iter;
  }
}

}  // namespace msim::an
