#include "devices/bjt.h"

#include <cmath>

#include "circuit/range.h"
#include "core/text_writer.h"
#include "devices/junction.h"
#include "numeric/units.h"

namespace msim::dev {

using ckt::kGround;

namespace {
constexpr int kC = 0, kB = 1, kE = 2;
}

Bjt::Bjt(std::string name, ckt::NodeId c, ckt::NodeId b, ckt::NodeId e,
         BjtParams params)
    : Device(std::move(name), {c, b, e}), p_(params) {
  set_temperature(p_.tnom_k);
  for (int gmin_on = 0; gmin_on < 2; ++gmin_on) {
    int n = 0;
    auto count = [&n](int, int, double) { ++n; };
    jac_writes(Eval{}, gmin_on, count);
    writes_[gmin_on] = n;
  }
}

void Bjt::set_temperature(double temp_k) {
  temp_k_ = temp_k;
  const double ratio = temp_k / p_.tnom_k;
  const double vt = num::thermal_voltage(temp_k);
  // SPICE: IS(T) = IS * (T/Tnom)^XTI * exp((Eg*q/k) * (1/Tnom - 1/T)),
  // i.e. exp((Eg/Vt(T)) * (T/Tnom - 1)).  This yields the physical
  // near-linear CTAT Vbe(T) with mild T*ln(T) concave curvature.
  is_eff_ = p_.is * p_.area * std::pow(ratio, p_.xti) *
            std::exp((p_.eg / vt) * (ratio - 1.0));
  beta_f_eff_ = p_.beta_f * std::pow(ratio, p_.xtb);
  beta_r_eff_ = p_.beta_r * std::pow(ratio, p_.xtb);
}

Bjt::Eval Bjt::evaluate_canonical(double vbe, double vbc) const {
  const double vt = num::thermal_voltage(temp_k_);
  const LimitedExp a = limited_exp(vbe / vt);
  const LimitedExp b = limited_exp(vbc / vt);

  const double ie_f = is_eff_ * (a.value - 1.0);
  const double ic_r = is_eff_ * (b.value - 1.0);
  const double die_f = is_eff_ * a.deriv / vt;
  const double dic_r = is_eff_ * b.deriv / vt;

  const double q_early = std::max(1.0 - vbc / p_.vaf, 0.1);
  const double dq_dvbc = (q_early > 0.1) ? -1.0 / p_.vaf : 0.0;

  const double ict = (ie_f - ic_r) * q_early;
  const double dict_dvbe = die_f * q_early;
  const double dict_dvbc = -dic_r * q_early + (ie_f - ic_r) * dq_dvbc;

  const double ibe = ie_f / beta_f_eff_;
  const double ibc = ic_r / beta_r_eff_;

  Eval e{};
  e.ic = ict - ibc;
  e.ib = ibe + ibc;
  e.dic_dvbe = dict_dvbe;
  e.dic_dvbc = dict_dvbc - dic_r / beta_r_eff_;
  e.dib_dvbe = die_f / beta_f_eff_;
  e.dib_dvbc = dic_r / beta_r_eff_;
  return e;
}

void Bjt::limit_junctions(const ckt::StampContext& ctx, double& vbe,
                          double& vbc) const {
  const double sign = p_.polarity == BjtPolarity::kNpn ? 1.0 : -1.0;
  const double vt = num::thermal_voltage(ctx.temp_k);
  const double vcrit = junction_vcrit(vt, is_eff_);
  vbe = sign * (ctx.v(nodes_[kB]) - ctx.v(nodes_[kE]));
  vbc = sign * (ctx.v(nodes_[kB]) - ctx.v(nodes_[kC]));
  vbe = pnjlim(vbe, vbe_prev_, vt, vcrit);
  vbc = pnjlim(vbc, vbc_prev_, vt, vcrit);
  vbe_prev_ = vbe;
  vbc_prev_ = vbc;
}

void Bjt::stamp(ckt::StampContext& ctx) const {
  // Canonical-frame junction voltages with SPICE step limiting.
  double vbe, vbc;
  limit_junctions(ctx, vbe, vbc);
  auto jac = [&ctx](int r, int c, double v) { ctx.add_jac(r, c, v); };
  emit(evaluate_canonical(vbe, vbc), vbe, vbc, jac, ctx);
}

template <typename Jac>
void Bjt::jac_writes(const Eval& e, double gmin, Jac& jac) const {
  // d ic / d(vb,vc,ve) in external frame; the conductances are
  // polarity-invariant (sign^2 = 1).
  const double dic_dvb = e.dic_dvbe + e.dic_dvbc;
  const double dic_dvc = -e.dic_dvbc;
  const double dic_dve = -e.dic_dvbe;
  const double dib_dvb = e.dib_dvbe + e.dib_dvbc;
  const double dib_dvc = -e.dib_dvbc;
  const double dib_dve = -e.dib_dvbe;

  auto at = [&jac](ckt::NodeId r, ckt::NodeId c2, double v) {
    if (r != kGround && c2 != kGround) jac(r - 1, c2 - 1, v);
  };
  const ckt::NodeId c = nodes_[kC], b = nodes_[kB], ee = nodes_[kE];

  // Collector KCL.
  at(c, b, dic_dvb);
  at(c, c, dic_dvc);
  at(c, ee, dic_dve);
  // Base KCL.
  at(b, b, dib_dvb);
  at(b, c, dib_dvc);
  at(b, ee, dib_dve);
  // Emitter KCL = -(collector + base).
  at(ee, b, -(dic_dvb + dib_dvb));
  at(ee, c, -(dic_dvc + dib_dvc));
  at(ee, ee, -(dic_dve + dib_dve));

  if (gmin > 0.0) {
    ckt::conductance_writes(b, ee, gmin, jac);
    ckt::conductance_writes(b, c, gmin, jac);
  }
}

template <typename Jac>
void Bjt::emit(const Eval& e, double vbe, double vbc, Jac& jac,
               ckt::StampContext& ctx) const {
  jac_writes(e, ctx.gmin, jac);
  const double sign = p_.polarity == BjtPolarity::kNpn ? 1.0 : -1.0;
  // Map to external currents: i_ext = sign * i_canonical.
  const double ic_ext = sign * e.ic;
  const double ib_ext = sign * e.ib;
  const double dic_dvb = e.dic_dvbe + e.dic_dvbc;
  const double dic_dvc = -e.dic_dvbc;
  const double dib_dvb = e.dib_dvbe + e.dib_dvbc;
  const double dib_dvc = -e.dib_dvbc;

  // Norton equivalents (evaluated at the limited voltages; note the
  // external-frame linearization uses external voltages sign*vbe etc.).
  const double vbe_ext = sign * vbe;
  const double vbc_ext = sign * vbc;
  const double vb_lin = vbe_ext;   // choose ve = 0, vc = vbe_ext - vbc_ext
  const double vc_lin = vbe_ext - vbc_ext;
  const double ieq_c = ic_ext - (dic_dvb * vb_lin + dic_dvc * vc_lin);
  const double ieq_b = ib_ext - (dib_dvb * vb_lin + dib_dvc * vc_lin);
  // Shift-invariance of the conductance rows lets us linearize in the
  // (vbe, vbc) frame: rows depend only on voltage differences.
  ctx.add_current_into(nodes_[kC], -ieq_c);
  ctx.add_current_into(nodes_[kB], -ieq_b);
  ctx.add_current_into(nodes_[kE], ieq_c + ieq_b);
}

void Bjt::save_op(const num::RealVector& x, double temp_k) {
  set_temperature(temp_k);
  const double sign = p_.polarity == BjtPolarity::kNpn ? 1.0 : -1.0;
  auto v = [&](ckt::NodeId nd) { return nd == kGround ? 0.0 : x[nd - 1]; };
  const double vbe = sign * (v(nodes_[kB]) - v(nodes_[kE]));
  const double vbc = sign * (v(nodes_[kB]) - v(nodes_[kC]));
  const Eval e = evaluate_canonical(vbe, vbc);
  op_.ic = sign * e.ic;
  op_.ib = sign * e.ib;
  op_.gm = e.dic_dvbe;
  op_.gpi = e.dib_dvbe;
  op_.gmu = e.dib_dvbc;
  op_.go = -e.dic_dvbc;
  op_.vbe = vbe;
  vbe_prev_ = vbe;
  vbc_prev_ = vbc;
}

void Bjt::stamp_ac(ckt::AcStampContext& ctx) const {
  const ckt::NodeId c = nodes_[kC], b = nodes_[kB], e = nodes_[kE];
  // Hybrid-pi: gm (b,e)->(c,e), gpi between b-e, gmu between b-c, go c-e.
  ctx.add_transconductance(c, e, b, e, {op_.gm, 0.0});
  ctx.add_admittance(b, e, {op_.gpi, 0.0});
  ctx.add_admittance(b, c, {op_.gmu, 0.0});
  ctx.add_admittance(c, e, {op_.go, 0.0});
}

void Bjt::append_noise_sources(std::vector<ckt::NoiseSource>& out,
                               double /*temp_k*/) const {
  const double sc = 2.0 * num::kElementaryCharge * std::abs(op_.ic);
  const double sb = 2.0 * num::kElementaryCharge * std::abs(op_.ib);
  const ckt::NodeId c = nodes_[kC], b = nodes_[kB], e = nodes_[kE];
  out.push_back(
      {name_ + ".shot_c", c, e, [sc](double) { return sc; }});
  out.push_back(
      {name_ + ".shot_b", b, e, [sb](double) { return sb; }});
  const double kf_ib = p_.kf * std::pow(std::abs(op_.ib), p_.af);
  const double af = p_.af;
  out.push_back({name_ + ".flicker", b, e, [kf_ib, af](double f) {
                   (void)af;
                   return kf_ib / f;
                 }});
}


bool Bjt::stamp_batch(const ckt::Device* const* devs, std::size_t n,
                      ckt::StampContext& ctx, const num::StampSlot* slots,
                      const std::pair<int, int>* windows) {
  // Every element of the run is a Bjt (RealSystem segments by
  // concrete class), so the qualified calls devirtualize the loop.
  const int gmin_on = ctx.gmin > 0.0;
  bool ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    const auto* q = static_cast<const Bjt*>(devs[i]);
    if (!slots) {
      q->Bjt::stamp(ctx);
      continue;
    }
    double vbe, vbc;
    q->limit_junctions(ctx, vbe, vbc);
    const Eval ev = q->evaluate_canonical(vbe, vbc);
    const auto [b, e] = windows[i];
    ok &= ckt::replay_window(
        ctx, slots + b, e - b, true, q->writes_[gmin_on],
        [&](auto& jac) { q->emit(ev, vbe, vbc, jac, ctx); });
  }
  return ok;
}

bool Bjt::stamp_lanes(const ckt::EnsembleRun& r) {
  // Device-outer, lane-inner: junction limiting + Ebers-Moll evaluation
  // over a lane tile (four independent lanes per unrolled step), then a
  // per-lane emit replaying the shared slot window.  Per lane the write
  // order equals the per-sample pass (bit-identical at one lane).
  constexpr std::size_t kTile = 8;
  double vbe[kTile], vbc[kTile];
  Eval ev[kTile];
  bool ok = true;
  for (std::size_t j = 0; j < r.ndev; ++j) {
    const auto& win = r.windows[j];
    for (std::size_t k0 = 0; k0 < r.nlanes; k0 += kTile) {
      const std::size_t kn = std::min(kTile, r.nlanes - k0);
      for (std::size_t t = 0; t < kn; ++t)
        static_cast<const Bjt*>(r.devs[k0 + t][j])
            ->limit_junctions(*r.ctx[k0 + t], vbe[t], vbc[t]);
      std::size_t t = 0;
      for (; t + 4 <= kn; t += 4) {
        ev[t + 0] = static_cast<const Bjt*>(r.devs[k0 + t + 0][j])
                        ->evaluate_canonical(vbe[t + 0], vbc[t + 0]);
        ev[t + 1] = static_cast<const Bjt*>(r.devs[k0 + t + 1][j])
                        ->evaluate_canonical(vbe[t + 1], vbc[t + 1]);
        ev[t + 2] = static_cast<const Bjt*>(r.devs[k0 + t + 2][j])
                        ->evaluate_canonical(vbe[t + 2], vbc[t + 2]);
        ev[t + 3] = static_cast<const Bjt*>(r.devs[k0 + t + 3][j])
                        ->evaluate_canonical(vbe[t + 3], vbc[t + 3]);
      }
      for (; t < kn; ++t)
        ev[t] = static_cast<const Bjt*>(r.devs[k0 + t][j])
                    ->evaluate_canonical(vbe[t], vbc[t]);
      for (std::size_t e = 0; e < kn; ++e) {
        ckt::StampContext& c = *r.ctx[k0 + e];
        const auto* q = static_cast<const Bjt*>(r.devs[k0 + e][j]);
        ok &= ckt::replay_window(
            c, r.slots + win.first, win.second - win.first,
            r.verified && r.verified[k0 + e], q->writes_[c.gmin > 0.0],
            [&](auto& jac) { q->emit(ev[e], vbe[e], vbc[e], jac, c); });
      }
    }
  }
  return ok;
}


void Bjt::range_eval(ckt::RangeContext& ctx) const {
  if (!ctx.verdict_pass()) return;
  const ckt::NodeId c = nodes_[kC], b = nodes_[kB], e = nodes_[kE];
  const double sign = p_.polarity == BjtPolarity::kNpn ? 1.0 : -1.0;
  const num::Interval vbe_c = num::scale(ctx.v(b) - ctx.v(e), sign);
  const num::Interval vbc_c = num::scale(ctx.v(b) - ctx.v(c), sign);
  if (vbe_c.hi < 0.0 && vbc_c.hi < 0.0) {
    ctx.note_dead(this, core::TextWriter()
                            .add("both junctions reverse-biased: V_BE <= ")
                            .num(vbe_c.hi, 4).add(" V, V_BC <= ")
                            .num(vbc_c.hi, 4).add(" V")
                            .take());
  }
  // The Early-effect clamp q_early = max(1 - vbc/vaf, 0.1) breaks
  // coordinate-wise monotonicity over wide vbc boxes, so collector-
  // current bounds are only claimed when both junction voltages are
  // pinned to points (evaluation is then exact, not a corner bound).
  if (vbe_c.bounded() && vbc_c.bounded() && vbe_c.width() == 0.0 &&
      vbc_c.width() == 0.0) {
    const Eval ev = evaluate_canonical(vbe_c.lo, vbc_c.lo);
    ctx.note_current(this, num::Interval::point(sign * ev.ic));
  }
}

}  // namespace msim::dev
