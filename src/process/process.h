// Process model of the paper's technology: a standard double-metal,
// double-poly 1.2 um n-well CMOS with |Vth| ~ 0.7 V, CMOS-compatible
// vertical PNP bipolars and polysilicon resistors.
//
// The exact foundry parameters of the 1995 chip are not public; the
// values here are assembled from era-typical published data (tox ~ 25 nm,
// uCox(n) ~ 80 uA/V^2, uCox(p) ~ 27 uA/V^2, PMOS flicker ~ 10-20x better
// than NMOS).  DESIGN.md documents this substitution: all reproduced
// *shapes* (noise corner, gain steps, TC curvature, THD-vs-swing) follow
// from the model structure, while absolute values land in the right
// decade because the constants do.
#pragma once

#include "devices/bjt.h"
#include "devices/mosfet.h"
#include "numeric/rng.h"

namespace msim::proc {

enum class Corner { kTT, kSS, kFF, kSF, kFS };

struct MosMismatch {
  double dvth = 0.0;       // threshold shift [V]
  double dbeta_rel = 0.0;  // relative current-factor error
};

class ProcessModel {
 public:
  // The paper's 1.2 um n-well CMOS at the given corner.
  static ProcessModel cmos12(Corner corner = Corner::kTT);

  Corner corner() const { return corner_; }

  // Device flavours (geometry is per-instance).
  const dev::MosParams& nmos() const { return nmos_; }
  const dev::MosParams& pmos() const { return pmos_; }
  // CMOS-compatible vertical PNP (emitter p+, base n-well, collector
  // substrate); `area_ratio` is the emitter area multiplier.
  dev::BjtParams vertical_pnp(double area_ratio = 1.0) const;

  // Polysilicon resistor temperature coefficients.
  double poly_tc1() const { return poly_tc1_; }
  double poly_tc2() const { return poly_tc2_; }

  // Pelgrom-law mismatch sampling for a device of the given geometry:
  // sigma(dVth) = A_VT / sqrt(W*L), sigma(dbeta/beta) = A_beta / sqrt(W*L).
  MosMismatch sample_mos_mismatch(num::Rng& rng, bool is_nmos, double w_m,
                                  double l_m) const;
  // Relative error of one matched unit resistor.
  double sample_resistor_mismatch(num::Rng& rng) const;

  // Mismatch constants (exposed for the design-equation module).
  double avt_n() const { return avt_n_; }
  double sigma_r_unit() const { return sigma_r_unit_; }

 private:
  Corner corner_ = Corner::kTT;
  dev::MosParams nmos_;
  dev::MosParams pmos_;
  double poly_tc1_ = 6e-4;
  double poly_tc2_ = 4e-7;
  double avt_n_ = 25e-9;        // [V*m] ~ 25 mV*um for tox ~ 25 nm
  double avt_p_ = 25e-9;
  double abeta_ = 2.3e-8;       // [m] ~ 2.3 %*um
  double sigma_r_unit_ = 0.0015;  // matched unit poly resistor, 1-sigma
};

}  // namespace msim::proc
