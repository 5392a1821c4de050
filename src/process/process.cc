#include "process/process.h"

#include <cmath>

namespace msim::proc {

ProcessModel ProcessModel::cmos12(Corner corner) {
  ProcessModel p;
  p.corner_ = corner;

  dev::MosParams n;
  n.polarity = dev::MosPolarity::kNmos;
  n.vth0 = 0.75;
  n.kp = 80e-6;
  n.lambda = 0.03;      // at L = 1 um; scaled by the device as 1um/L
  n.gamma = 0.80;
  n.phi = 0.70;
  n.cox = 1.4e-3;       // tox ~ 25 nm
  n.kf = 2.0e-24;       // NMOS flicker (S_vg = kf / (Cox W L f))
  n.af = 1.0;
  n.n_sub = 1.5;
  n.ld = 0.15e-6;
  n.vth_tc = -1.8e-3;
  n.mu_exp = 1.5;

  dev::MosParams pm;
  pm.polarity = dev::MosPolarity::kPmos;
  pm.vth0 = 0.78;
  pm.kp = 27e-6;
  pm.lambda = 0.045;
  pm.gamma = 0.55;
  pm.phi = 0.70;
  pm.cox = 1.4e-3;
  pm.kf = 8.0e-26;      // buried-channel PMOS: far lower flicker
  pm.af = 1.0;
  pm.n_sub = 1.6;
  pm.ld = 0.15e-6;
  pm.vth_tc = -1.5e-3;  // |Vth| drops with T for PMOS too
  pm.mu_exp = 1.2;

  // Corner shifts: threshold +/- 100 mV and current factor -/+ 10 %.
  auto slow = [](dev::MosParams& m) {
    m.vth0 += 0.10;
    m.kp *= 0.90;
  };
  auto fast = [](dev::MosParams& m) {
    m.vth0 -= 0.10;
    m.kp *= 1.10;
  };
  switch (corner) {
    case Corner::kTT:
      break;
    case Corner::kSS:
      slow(n);
      slow(pm);
      break;
    case Corner::kFF:
      fast(n);
      fast(pm);
      break;
    case Corner::kSF:
      slow(n);
      fast(pm);
      break;
    case Corner::kFS:
      fast(n);
      slow(pm);
      break;
  }

  p.nmos_ = n;
  p.pmos_ = pm;
  return p;
}

dev::BjtParams ProcessModel::vertical_pnp(double area_ratio) const {
  dev::BjtParams b;
  b.polarity = dev::BjtPolarity::kPnp;
  b.is = 2e-17;      // per-unit emitter
  b.beta_f = 12.0;   // vertical PNP to substrate: modest beta
  b.beta_r = 0.5;
  b.vaf = 40.0;
  b.xti = 3.0;
  b.xtb = 1.5;
  b.eg = 1.11;
  b.kf = 2e-14;
  b.af = 1.0;
  b.area = area_ratio;
  return b;
}

MosMismatch ProcessModel::sample_mos_mismatch(num::Rng& rng, bool is_nmos,
                                              double w_m, double l_m) const {
  const double inv_sqrt_area = 1.0 / std::sqrt(w_m * l_m);
  MosMismatch m;
  m.dvth = rng.normal(0.0, (is_nmos ? avt_n_ : avt_p_) * inv_sqrt_area);
  m.dbeta_rel = rng.normal(0.0, abeta_ * inv_sqrt_area);
  return m;
}

double ProcessModel::sample_resistor_mismatch(num::Rng& rng) const {
  return rng.normal(0.0, sigma_r_unit_);
}

}  // namespace msim::proc
