#include "devices/diode.h"

#include <cmath>
#include <cstdio>

#include "circuit/range.h"
#include "devices/junction.h"
#include "numeric/units.h"

namespace msim::dev {

using ckt::kGround;

Diode::Diode(std::string name, ckt::NodeId anode, ckt::NodeId cathode,
             DiodeParams params)
    : Device(std::move(name), {anode, cathode}), p_(params) {
  set_temperature(p_.tnom_k);
  writes_ = 0;
  auto count = [this](int, int, double) { ++writes_; };
  ckt::conductance_writes(anode, cathode, 0.0, count);
}

void Diode::set_temperature(double temp_k) {
  temp_k_ = temp_k;
  const double ratio = temp_k / p_.tnom_k;
  const double vt = num::thermal_voltage(temp_k);
  is_eff_ = p_.is * p_.area * std::pow(ratio, p_.xti / p_.n) *
            std::exp((p_.eg / (p_.n * vt)) * (ratio - 1.0));
}

Diode::Linearized Diode::linearize(const ckt::StampContext& ctx) const {
  const double nvt = p_.n * num::thermal_voltage(ctx.temp_k);
  const double vcrit = junction_vcrit(nvt, is_eff_);
  double v = ctx.v(nodes_[0]) - ctx.v(nodes_[1]);
  v = pnjlim(v, v_prev_, nvt, vcrit);
  v_prev_ = v;

  const LimitedExp e = limited_exp(v / nvt);
  const double id = is_eff_ * (e.value - 1.0);
  const double gd = is_eff_ * e.deriv / nvt + ctx.gmin;
  return {gd, id - gd * v};
}

template <typename Jac>
void Diode::emit(const Linearized& l, Jac& jac,
                 ckt::StampContext& ctx) const {
  ckt::conductance_writes(nodes_[0], nodes_[1], l.gd, jac);
  ctx.add_current_into(nodes_[0], -l.ieq);
  ctx.add_current_into(nodes_[1], l.ieq);
}

void Diode::stamp(ckt::StampContext& ctx) const {
  auto jac = [&ctx](int r, int c, double v) { ctx.add_jac(r, c, v); };
  emit(linearize(ctx), jac, ctx);
}

void Diode::save_op(const num::RealVector& x, double temp_k) {
  set_temperature(temp_k);
  auto vn = [&](ckt::NodeId nd) { return nd == kGround ? 0.0 : x[nd - 1]; };
  const double v = vn(nodes_[0]) - vn(nodes_[1]);
  const double nvt = p_.n * num::thermal_voltage(temp_k);
  const LimitedExp e = limited_exp(v / nvt);
  id_op_ = is_eff_ * (e.value - 1.0);
  gd_op_ = is_eff_ * e.deriv / nvt;
  v_prev_ = v;
}

void Diode::stamp_ac(ckt::AcStampContext& ctx) const {
  ctx.add_admittance(nodes_[0], nodes_[1], {gd_op_, 0.0});
}

void Diode::append_noise_sources(std::vector<ckt::NoiseSource>& out,
                                 double /*temp_k*/) const {
  const double s_shot = 2.0 * num::kElementaryCharge * std::abs(id_op_);
  out.push_back({name_ + ".shot", nodes_[0], nodes_[1],
                 [s_shot](double) { return s_shot; }});
  if (p_.kf > 0.0) {
    const double kf_id = p_.kf * std::pow(std::abs(id_op_), p_.af);
    out.push_back({name_ + ".flicker", nodes_[0], nodes_[1],
                   [kf_id](double f) { return kf_id / f; }});
  }
}


bool Diode::stamp_batch(const ckt::Device* const* devs, std::size_t n,
                        ckt::StampContext& ctx, const num::StampSlot* slots,
                        const std::pair<int, int>* windows) {
  // Every element of the run is a Diode (RealSystem segments by
  // concrete class), so the qualified calls devirtualize the loop.
  bool ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    const auto* d = static_cast<const Diode*>(devs[i]);
    if (!slots) {
      d->Diode::stamp(ctx);
      continue;
    }
    const Linearized l = d->linearize(ctx);
    const auto [b, e] = windows[i];
    ok &= ckt::replay_window(ctx, slots + b, e - b, true, d->writes_,
                             [&](auto& jac) { d->emit(l, jac, ctx); });
  }
  return ok;
}

bool Diode::stamp_lanes(const ckt::EnsembleRun& r) {
  // Device-outer, lane-inner: the junction evaluation (pnjlim +
  // limited exp, each lane against its own instance state and candidate
  // solution) runs over a lane tile, then the emit loop replays the
  // shared slot window per lane.  Per lane the write order equals the
  // per-sample pass, so one-lane ensembles stay bit-identical.
  constexpr std::size_t kTile = 8;
  Linearized lin[kTile];
  bool ok = true;
  for (std::size_t j = 0; j < r.ndev; ++j) {
    const auto& win = r.windows[j];
    for (std::size_t k0 = 0; k0 < r.nlanes; k0 += kTile) {
      const std::size_t kn = std::min(kTile, r.nlanes - k0);
      for (std::size_t t = 0; t < kn; ++t)
        lin[t] = static_cast<const Diode*>(r.devs[k0 + t][j])
                     ->linearize(*r.ctx[k0 + t]);
      for (std::size_t t = 0; t < kn; ++t) {
        const auto* d = static_cast<const Diode*>(r.devs[k0 + t][j]);
        ckt::StampContext& c = *r.ctx[k0 + t];
        ok &= ckt::replay_window(
            c, r.slots + win.first, win.second - win.first,
            r.verified && r.verified[k0 + t], d->writes_,
            [&](auto& jac) { d->emit(lin[t], jac, c); });
      }
    }
  }
  return ok;
}


void Diode::range_eval(ckt::RangeContext& ctx) const {
  if (!ctx.verdict_pass()) return;
  const num::Interval v = ctx.v(nodes_[0]) - ctx.v(nodes_[1]);
  if (v.hi < 0.0) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "junction never forward-biased: V_AK <= %.4g V", v.hi);
    ctx.note_dead(this, buf);
  }
  if (v.bounded()) {
    // I(V) is monotone increasing, so the endpoints bound the current
    // exactly (limited_exp matches what stamp() evaluates).
    const double nvt = p_.n * num::thermal_voltage(ctx.temp_k);
    const double ilo = is_eff_ * (limited_exp(v.lo / nvt).value - 1.0);
    const double ihi = is_eff_ * (limited_exp(v.hi / nvt).value - 1.0);
    ctx.note_current(this, num::Interval::bounds(ilo, ihi));
  }
}

}  // namespace msim::dev
