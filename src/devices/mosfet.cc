#include "devices/mosfet.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "circuit/range.h"
#include "core/text_writer.h"
#include "devices/junction.h"
#include "numeric/units.h"

namespace msim::dev {

using ckt::kGround;

namespace {
// Node order inside nodes_: drain, gate, source, bulk.
constexpr int kD = 0, kG = 1, kS = 2, kB = 3;
}  // namespace

template <typename Jac>
void Mosfet::jac_writes(const Eval& e, double gmin, Jac& jac) const {
  auto at = [&jac](ckt::NodeId r, ckt::NodeId c, double v) {
    if (r != kGround && c != kGround) jac(r - 1, c - 1, v);
  };
  const ckt::NodeId d = nodes_[kD], g = nodes_[kG], s = nodes_[kS],
                    b = nodes_[kB];
  const double gsum = e.gm + e.gds + e.gmb;
  at(d, g, e.gm);
  at(d, d, e.gds);
  at(d, b, e.gmb);
  at(d, s, -gsum);
  at(s, g, -e.gm);
  at(s, d, -e.gds);
  at(s, b, -e.gmb);
  at(s, s, gsum);
  // gmin shunt keeps floating drains solvable during homotopy.
  if (gmin > 0.0) ckt::conductance_writes(d, s, gmin, jac);
}

template <typename Jac>
void Mosfet::emit(const Eval& e, double vd, double vg, double vs, double vb,
                  Jac& jac, ckt::StampContext& ctx) const {
  // Norton linearization: i_d = id0 + gm dvgs + gds dvds + gmb dvbs.
  const double vgs = vg - vs, vds = vd - vs, vbs = vb - vs;
  const double ieq = e.id - e.gm * vgs - e.gds * vds - e.gmb * vbs;
  jac_writes(e, ctx.gmin, jac);
  ctx.add_current_into(nodes_[kD], -ieq);
  ctx.add_current_into(nodes_[kS], ieq);
}

Mosfet::Mosfet(std::string name, ckt::NodeId d, ckt::NodeId g, ckt::NodeId s,
               ckt::NodeId b, MosParams params, double w_m, double l_m)
    : Device(std::move(name), {d, g, s, b}),
      p_(params),
      w_(w_m),
      l_(l_m) {
  set_temperature(p_.tnom_k);
  for (int gmin_on = 0; gmin_on < 2; ++gmin_on) {
    int n = 0;
    auto count = [&n](int, int, double) { ++n; };
    jac_writes(Eval{}, gmin_on, count);
    writes_[gmin_on] = n;
  }
}

void Mosfet::set_temperature(double temp_k) {
  temp_k_ = temp_k;
  const double dt = temp_k - p_.tnom_k;
  vth_eff_ = p_.vth0 + p_.vth_tc * dt + dvth_mismatch_;
  kp_eff_ = p_.kp * std::pow(temp_k / p_.tnom_k, -p_.mu_exp) *
            (1.0 + dbeta_rel_);
  nvt2_ = 2.0 * p_.n_sub * num::thermal_voltage(temp_k_);
  sqrt_phi_ = std::sqrt(p_.phi);
  beta_ = kp_eff_ * (w_ / l_);
  lam_ = p_.lambda * (1e-6 / l_);  // scale with channel length
}

void Mosfet::apply_mismatch(double dvth, double dbeta_rel) {
  dvth_mismatch_ = dvth;
  dbeta_rel_ = dbeta_rel;
  set_temperature(temp_k_);
}

Mosfet::Eval Mosfet::evaluate_canonical(double vgs, double vds,
                                        double vbs) const {
  // Body effect with a hard floor on the depletion argument; the floor is
  // only reached under forward bulk bias far outside normal operation.
  const double s_arg = std::max(p_.phi - vbs, 0.01);
  const double sqrt_s = std::sqrt(s_arg);
  const double vth = vth_eff_ + p_.gamma * (sqrt_s - sqrt_phi_);
  const double dvth_dvbs = -p_.gamma / (2.0 * sqrt_s);

  // Smooth effective overdrive: strong inversion -> vgs - vth,
  // weak inversion -> exponential tail with slope 2 n vt.
  const SoftPlus sp = softplus(vgs - vth, nvt2_);
  const double veff = sp.value;
  const double clm = 1.0 + lam_ * vds;

  Eval e{};
  e.veff = veff;
  double gm_core;  // d id / d veff
  if (vds < veff) {
    // Triode.
    e.id = beta_ * (veff - 0.5 * vds) * vds * clm;
    gm_core = beta_ * vds * clm;
    e.gds = beta_ * (veff - vds) * clm +
            beta_ * (veff - 0.5 * vds) * vds * lam_;
    e.saturated = false;
  } else {
    // Saturation.
    e.id = 0.5 * beta_ * veff * veff * clm;
    gm_core = beta_ * veff * clm;
    e.gds = 0.5 * beta_ * veff * veff * lam_;
    e.saturated = true;
  }
  e.gm = gm_core * sp.deriv;
  e.gmb = gm_core * sp.deriv * (-dvth_dvbs);
  e.reversed = false;
  return e;
}

Mosfet::Eval Mosfet::evaluate(double vd, double vg, double vs,
                              double vb) const {
  const double sign = p_.polarity == MosPolarity::kNmos ? 1.0 : -1.0;
  const double vgs = sign * (vg - vs);
  const double vds = sign * (vd - vs);
  const double vbs = sign * (vb - vs);

  if (vds >= 0.0) {
    Eval e = evaluate_canonical(vgs, vds, vbs);
    e.id *= sign;  // conductances are polarity-invariant
    return e;
  }
  // Drain/source exchange: evaluate with the roles swapped, then map the
  // derivatives back to the original terminal ordering.
  const Eval r = evaluate_canonical(vgs - vds, -vds, vbs - vds);
  Eval e{};
  e.id = -sign * r.id;
  e.gm = -r.gm;
  e.gmb = -r.gmb;
  e.gds = r.gm + r.gds + r.gmb;
  e.veff = r.veff;
  e.saturated = r.saturated;
  e.reversed = true;
  return e;
}

void Mosfet::stamp_eval(const Eval& e, double vd, double vg, double vs,
                        double vb, ckt::StampContext& ctx) const {
  auto jac = [&ctx](int r, int c, double v) { ctx.add_jac(r, c, v); };
  emit(e, vd, vg, vs, vb, jac, ctx);
}

void Mosfet::stamp(ckt::StampContext& ctx) const {
  const double vd = ctx.v(nodes_[kD]);
  const double vg = ctx.v(nodes_[kG]);
  const double vs = ctx.v(nodes_[kS]);
  const double vb = ctx.v(nodes_[kB]);
  stamp_eval(evaluate(vd, vg, vs, vb), vd, vg, vs, vb, ctx);
}

bool Mosfet::stamp_batch(const ckt::Device* const* devs, std::size_t n,
                         ckt::StampContext& ctx, const num::StampSlot* slots,
                         const std::pair<int, int>* windows) {
  // Structure-of-arrays staging: gather every run member's terminal
  // voltages, evaluate the softplus/CLM model math over plain arrays in
  // one tight loop, then emit the stamps in device order.  The emitted
  // write sequence is exactly the per-device loop's, so the assembled
  // matrix is bit-identical to the virtual fallback path.
  thread_local std::vector<double> vd, vg, vs, vb;
  thread_local std::vector<Eval> evals;
  vd.resize(n);
  vg.resize(n);
  vs.resize(n);
  vb.resize(n);
  evals.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto* m = static_cast<const Mosfet*>(devs[i]);
    vd[i] = ctx.v(m->nodes_[kD]);
    vg[i] = ctx.v(m->nodes_[kG]);
    vs[i] = ctx.v(m->nodes_[kS]);
    vb[i] = ctx.v(m->nodes_[kB]);
  }
  for (std::size_t i = 0; i < n; ++i)
    evals[i] = static_cast<const Mosfet*>(devs[i])->evaluate(vd[i], vg[i],
                                                             vs[i], vb[i]);
  if (!slots) {
    for (std::size_t i = 0; i < n; ++i)
      static_cast<const Mosfet*>(devs[i])->stamp_eval(evals[i], vd[i], vg[i],
                                                      vs[i], vb[i], ctx);
    return true;
  }
  const int gmin_on = ctx.gmin > 0.0;
  bool ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    const auto* m = static_cast<const Mosfet*>(devs[i]);
    const auto [b, e] = windows[i];
    ok &= ckt::replay_window(ctx, slots + b, e - b, true,
                             m->writes_[gmin_on], [&](auto& jac) {
                               m->emit(evals[i], vd[i], vg[i], vs[i], vb[i],
                                       jac, ctx);
                             });
  }
  return ok;
}

bool Mosfet::stamp_lanes(const ckt::EnsembleRun& r) {
  // Device-outer, lane-inner: one device position's lanes share the
  // same recorded slot window and the same CSR indices, so the strided
  // lane writes of the emit loop land in adjacent memory
  // (EnsembleValues lane blocks).  Per lane the emitted write order is
  // still device 0..ndev-1 — identical to the per-sample pass — so a
  // one-lane ensemble stays bit-identical to run_transient.
  constexpr std::size_t kTile = 8;
  double vd[kTile], vg[kTile], vs[kTile], vb[kTile];
  Eval ev[kTile];
  bool ok = true;
  for (std::size_t j = 0; j < r.ndev; ++j) {
    const auto& win = r.windows[j];
    for (std::size_t k0 = 0; k0 < r.nlanes; k0 += kTile) {
      const std::size_t kn = std::min(kTile, r.nlanes - k0);
      for (std::size_t t = 0; t < kn; ++t) {
        const auto* m = static_cast<const Mosfet*>(r.devs[k0 + t][j]);
        const ckt::StampContext& c = *r.ctx[k0 + t];
        vd[t] = c.v(m->nodes_[kD]);
        vg[t] = c.v(m->nodes_[kG]);
        vs[t] = c.v(m->nodes_[kS]);
        vb[t] = c.v(m->nodes_[kB]);
      }
      // Four independent lanes per iteration give the compiler parallel
      // dependency chains through the softplus/CLM math.
      std::size_t t = 0;
      for (; t + 4 <= kn; t += 4) {
        const auto* m0 = static_cast<const Mosfet*>(r.devs[k0 + t + 0][j]);
        const auto* m1 = static_cast<const Mosfet*>(r.devs[k0 + t + 1][j]);
        const auto* m2 = static_cast<const Mosfet*>(r.devs[k0 + t + 2][j]);
        const auto* m3 = static_cast<const Mosfet*>(r.devs[k0 + t + 3][j]);
        ev[t + 0] = m0->evaluate(vd[t + 0], vg[t + 0], vs[t + 0], vb[t + 0]);
        ev[t + 1] = m1->evaluate(vd[t + 1], vg[t + 1], vs[t + 1], vb[t + 1]);
        ev[t + 2] = m2->evaluate(vd[t + 2], vg[t + 2], vs[t + 2], vb[t + 2]);
        ev[t + 3] = m3->evaluate(vd[t + 3], vg[t + 3], vs[t + 3], vb[t + 3]);
      }
      for (; t < kn; ++t)
        ev[t] = static_cast<const Mosfet*>(r.devs[k0 + t][j])
                    ->evaluate(vd[t], vg[t], vs[t], vb[t]);
      for (std::size_t e = 0; e < kn; ++e) {
        ckt::StampContext& c = *r.ctx[k0 + e];
        const auto* m = static_cast<const Mosfet*>(r.devs[k0 + e][j]);
        ok &= ckt::replay_window(
            c, r.slots + win.first, win.second - win.first,
            r.verified && r.verified[k0 + e], m->writes_[c.gmin > 0.0],
            [&](auto& jac) {
              m->emit(ev[e], vd[e], vg[e], vs[e], vb[e], jac, c);
            });
      }
    }
  }
  return ok;
}

void Mosfet::save_op(const num::RealVector& x, double temp_k) {
  set_temperature(temp_k);
  auto v = [&](ckt::NodeId nd) { return nd == kGround ? 0.0 : x[nd - 1]; };
  const Eval e =
      evaluate(v(nodes_[kD]), v(nodes_[kG]), v(nodes_[kS]), v(nodes_[kB]));
  op_.id = e.id;
  op_.gm = e.gm;
  op_.gds = e.gds;
  op_.gmb = e.gmb;
  op_.veff = e.veff;
  op_.saturated = e.saturated;
  op_.reversed = e.reversed;
  // Meyer-style gate capacitances plus overlap.
  const double c_ox_total = w_ * l_ * p_.cox;
  const double c_ov = w_ * p_.ld * p_.cox;
  if (e.saturated) {
    op_.cgs = (2.0 / 3.0) * c_ox_total + c_ov;
    op_.cgd = c_ov;
  } else {
    op_.cgs = 0.5 * c_ox_total + c_ov;
    op_.cgd = 0.5 * c_ox_total + c_ov;
  }
  if (e.reversed) std::swap(op_.cgs, op_.cgd);
}

void Mosfet::stamp_ac(ckt::AcStampContext& ctx) const {
  const ckt::NodeId d = nodes_[kD], g = nodes_[kG], s = nodes_[kS],
                    b = nodes_[kB];
  ctx.add_transconductance(d, s, g, s, {op_.gm, 0.0});
  ctx.add_transconductance(d, s, b, s, {op_.gmb, 0.0});
  ctx.add_admittance(d, s, {op_.gds, 0.0});
  ctx.add_admittance(g, s, {0.0, op_.cgs});
  ctx.add_admittance(g, d, {0.0, op_.cgd});
}

void Mosfet::append_noise_sources(std::vector<ckt::NoiseSource>& out,
                                  double temp_k) const {
  const double gm = std::abs(op_.gm);
  const double gds = std::abs(op_.gds);
  // Channel thermal noise: the long-channel 4kT*gamma*gm form in
  // saturation (SPICE NLEV default); the gds term takes over in triode
  // where the channel is a resistor.
  const double s_thermal =
      4.0 * num::kBoltzmann * temp_k *
      (p_.noise_gamma * gm + (op_.saturated ? 0.0 : gds));
  const ckt::NodeId d = nodes_[kD], s = nodes_[kS];
  out.push_back({name_ + ".thermal", d, s,
                 [s_thermal](double) { return s_thermal; }});
  // Flicker noise: S_vg = kf / (Cox W L f^af) referred to the gate,
  // injected as gm^2 * S_vg between drain and source.
  const double kf_num = p_.kf / (p_.cox * w_ * l_);
  const double af = p_.af;
  const double gm2 = op_.gm * op_.gm;
  out.push_back({name_ + ".flicker", d, s, [kf_num, af, gm2](double f) {
                   return gm2 * kf_num / std::pow(f, af);
                 }});
}


void Mosfet::range_eval(ckt::RangeContext& ctx) const {
  const ckt::NodeId d = nodes_[kD], g = nodes_[kG], s = nodes_[kS],
                    b = nodes_[kB];
  // The Level-1 model injects current only at drain and source
  // (stamp_eval writes no gate or bulk rows), so gate and bulk are
  // zero-DC-current terminals -- unless tied to a current-carrying
  // terminal of this same device (diode-connected wiring).
  if (g != d && g != s) ctx.declare_no_dc_current(this, g);
  if (b != d && b != s) ctx.declare_no_dc_current(this, b);
  if (!ctx.verdict_pass()) return;

  const double sign = p_.polarity == MosPolarity::kNmos ? 1.0 : -1.0;
  const num::Interval vgs_c = num::scale(ctx.v(g) - ctx.v(s), sign);
  const num::Interval vgd_c = num::scale(ctx.v(g) - ctx.v(d), sign);
  // V_TH minimized over the feasible body bias: forward body bias
  // lowers the threshold, and the sqrt argument floors at zero exactly
  // as evaluate_canonical() floors it, so an unbounded bulk still
  // yields the finite minimum vth_eff - gamma * sqrt(phi).
  const double vbs_hi = std::max(num::scale(ctx.v(b) - ctx.v(s), sign).hi,
                                 num::scale(ctx.v(b) - ctx.v(d), sign).hi);
  const double sphi = std::sqrt(std::max(p_.phi, 0.0));
  const double vth_min =
      vth_eff_ + p_.gamma * (std::sqrt(std::max(p_.phi - vbs_hi, 0.0)) - sphi);
  // Guaranteed off: neither channel orientation reaches the threshold
  // anywhere in the voltage box.  A few-nkT/q guard band keeps the
  // softplus subthreshold tail negligible as well.
  const double guard = 6.0 * p_.n_sub * num::thermal_voltage(ctx.temp_k);
  const double vgs_best = std::max(vgs_c.hi, vgd_c.hi);
  if (std::isfinite(vgs_best) && vgs_best < vth_min - guard) {
    ctx.note_dead(this, core::TextWriter()
                            .add("channel never turns on: max V_GS <= ")
                            .num(vgs_best, 4).add(" V, V_TH >= ")
                            .num(vth_min, 4)
                            .add(" V over the voltage bounds")
                            .take());
  }

  // Drain-current bounds by corner enumeration: the model is
  // coordinate-wise monotone in each terminal voltage (including
  // through the drain/source-reversal fold), so the 16 corners of a
  // bounded voltage box attain the exact extrema.
  const num::Interval ivd = ctx.v(d), ivg = ctx.v(g), ivs = ctx.v(s),
                      ivb = ctx.v(b);
  if (ivd.bounded() && ivg.bounded() && ivs.bounded() && ivb.bounded()) {
    double lo = std::numeric_limits<double>::infinity(), hi = -lo;
    for (int m = 0; m < 16; ++m) {
      const Eval e = evaluate(m & 1 ? ivd.hi : ivd.lo, m & 2 ? ivg.hi : ivg.lo,
                              m & 4 ? ivs.hi : ivs.lo, m & 8 ? ivb.hi : ivb.lo);
      lo = std::min(lo, e.id);
      hi = std::max(hi, e.id);
    }
    ctx.note_current(this, {lo, hi});
  }
}

}  // namespace msim::dev
