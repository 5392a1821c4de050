// MOSFET: SPICE Level-1 square-law model with a smooth (softplus)
// weak-inversion blend, body effect, channel-length modulation, thermal
// and flicker noise, simple Meyer-style gate capacitances and first-order
// temperature dependence.
//
// The smooth blend keeps all derivatives continuous, which lets the plain
// damped-Newton operating-point solver converge on the paper's amplifier
// netlists without device-by-device voltage limiting.
#pragma once

#include <string>

#include "circuit/device.h"

namespace msim::dev {

enum class MosPolarity { kNmos, kPmos };

// Process-level parameters of one device flavour.  Geometry (W, L) and
// mismatch live on the device instance.
struct MosParams {
  MosPolarity polarity = MosPolarity::kNmos;
  double vth0 = 0.7;      // zero-bias threshold magnitude [V]
  double kp = 60e-6;      // transconductance factor uCox [A/V^2]
  double lambda = 0.03;   // channel-length modulation at L = 1 um [1/V]
  double gamma = 0.5;     // body-effect coefficient [sqrt(V)]
  double phi = 0.65;      // surface potential 2*phi_F [V]
  double cox = 1.7e-3;    // gate capacitance density [F/m^2]
  double kf = 3e-24;      // flicker coeff: S_vg = kf / (cox W L f^af) [J]
  double af = 1.0;        // flicker frequency exponent
  double n_sub = 1.5;     // sub-threshold slope factor
  double ld = 0.1e-6;     // lateral diffusion (overlap) [m]
  double tnom_k = 300.15;
  double vth_tc = -1.8e-3;   // d|Vth|/dT [V/K]
  double mu_exp = 1.5;       // kp ~ (T/Tnom)^-mu_exp
  // Excess thermal-noise factor ("gamma_n"); 2/3 for long-channel
  // saturation, which is the regime the paper's design insists on.
  double noise_gamma = 2.0 / 3.0;
};

// Small-signal operating point captured by save_op().
struct MosOp {
  double id = 0.0;   // drain current into the drain terminal [A]
  double gm = 0.0;   // d id / d vgs
  double gds = 0.0;  // d id / d vds
  double gmb = 0.0;  // d id / d vbs
  double veff = 0.0; // effective overdrive (canonical) [V]
  double cgs = 0.0, cgd = 0.0;
  bool saturated = false;
  bool reversed = false;  // drain/source exchanged at this OP
};

class Mosfet : public ckt::Device {
 public:
  Mosfet(std::string name, ckt::NodeId d, ckt::NodeId g, ckt::NodeId s,
         ckt::NodeId b, MosParams params, double w_m, double l_m);

  std::string_view type() const override { return "mosfet"; }

  double width() const { return w_; }
  double length() const { return l_; }
  const MosParams& params() const { return p_; }
  const MosOp& op() const { return op_; }

  // Monte-Carlo mismatch: threshold shift [V] and relative beta error.
  void apply_mismatch(double dvth, double dbeta_rel);

  void stamp(ckt::StampContext& ctx) const final;
  // Stamps a run of devices that are all of this concrete class
  // (one devirtualized loop; see RealSystem batched assembly).  With
  // `slots`, the run replays a slot table already checked against these
  // devices: device i writes its window windows[i] (absolute into
  // `slots`) straight to the recorded value slots through
  // ckt::replay_window.  Returns false when a window had to be replayed
  // through the checked path (caller re-records).
  static bool stamp_batch(const ckt::Device* const* devs, std::size_t n,
                          ckt::StampContext& ctx,
                          const num::StampSlot* slots = nullptr,
                          const std::pair<int, int>* windows = nullptr);
  // Lockstep ensemble kernel: stamps the run across every lane of an
  // ensemble assembly, device-outer / lane-inner with the model math
  // unrolled four lanes wide (see an::EnsembleSystem); lanes marked
  // verified replay through the same direct path as stamp_batch.
  // Returns false when any lane's slot replay mismatched (caller
  // re-records).
  static bool stamp_lanes(const ckt::EnsembleRun& r);
  // Interval transfer: gate/bulk are zero-DC-current terminals (the
  // Level-1 model injects current only at drain and source), the
  // guaranteed-off verdict fires when neither channel orientation can
  // reach V_GS > V_TH over the voltage box (V_TH minimized over the
  // feasible body bias), and drain-current bounds come from corner
  // enumeration of evaluate() -- exact because the model is
  // coordinate-wise monotone in each terminal voltage.
  void range_eval(ckt::RangeContext& ctx) const override;
  void save_op(const num::RealVector& x, double temp_k) override;
  void stamp_ac(ckt::AcStampContext& ctx) const override;
  bool is_nonlinear() const override { return true; }
  void append_noise_sources(std::vector<ckt::NoiseSource>& out,
                            double temp_k) const override;
  void set_temperature(double temp_k) override;
  std::vector<std::pair<std::string, double>> param_values() const override {
    return {{"w", w_},         {"l", l_},          {"vth0", p_.vth0},
            {"kp", p_.kp},     {"lambda", p_.lambda}};
  }

  // Evaluates the large-signal model at given *external* terminal
  // voltages; exposed for unit tests and the design-equation module.
  struct Eval {
    double id;   // current into the drain terminal
    double gm, gds, gmb;
    double veff;
    bool saturated;
    bool reversed;
  };
  Eval evaluate(double vd, double vg, double vs, double vb) const;

 private:
  // Canonical (NMOS-oriented, vds >= 0) model evaluation.
  Eval evaluate_canonical(double vgs, double vds, double vbs) const;
  // The Jacobian writes of one stamp, in order, through
  // jac(row, col, value): the Norton entries of `e`, then the gmin
  // drain-source shunt while gmin > 0.
  template <typename Jac>
  void jac_writes(const Eval& e, double gmin, Jac& jac) const;
  // Emits the Norton stamps for an already-computed evaluation (the
  // write half of stamp(); stamp_batch stages evaluations separately):
  // the Jacobian through `jac`, the rhs into ctx.
  template <typename Jac>
  void emit(const Eval& e, double vd, double vg, double vs, double vb,
            Jac& jac, ckt::StampContext& ctx) const;
  void stamp_eval(const Eval& e, double vd, double vg, double vs, double vb,
                  ckt::StampContext& ctx) const;

  MosParams p_;
  double w_, l_;
  double temp_k_ = 300.15;
  double vth_eff_;  // temperature- and mismatch-adjusted threshold
  double kp_eff_;
  // Model values fixed by temperature, geometry and mismatch, computed
  // by set_temperature() with the expressions evaluate() once used on
  // every call (so they hold the same bits).
  double nvt2_;      // 2 n kT/q, the weak-inversion slope
  double sqrt_phi_;  // sqrt(phi)
  double beta_;      // kp_eff * W/L
  double lam_;       // lambda scaled by 1 um / L
  double dvth_mismatch_ = 0.0;
  double dbeta_rel_ = 0.0;
  // Jacobian writes per stamp with gmin off / on (fixed by which
  // terminals are grounded): the window length a slot replay expects.
  int writes_[2];
  MosOp op_;
};

}  // namespace msim::dev
