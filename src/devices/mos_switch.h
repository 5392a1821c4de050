// Digitally controlled MOS transmission switch, modelled as a resistor
// toggling between R_on and R_off.
//
// The PGA gain-select switches in the paper are MOS devices driven by
// static digital codes, so circuit-controlled switching is unnecessary;
// what matters is the on-resistance (it enters the closed-loop gain and
// adds 4kT*R_on thermal noise, Eq. (5) of the paper).  R_on can be given
// directly or derived from the switch geometry via Eq. (5)'s
// R_on = 1 / (2 (W/L) uCox Veff) for a complementary pair.
#pragma once

#include <optional>

#include "circuit/device.h"
#include "devices/waveform.h"

namespace msim::dev {

class MosSwitch : public ckt::Device {
 public:
  MosSwitch(std::string name, ckt::NodeId p, ckt::NodeId n, double r_on,
            double r_off = 1e12, bool on = false);

  std::string_view type() const override { return "switch"; }

  bool is_on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  double r_on() const { return r_on_; }
  double resistance() const { return on_ ? r_on_ : r_off_; }

  // Clocked operation (switched-capacitor circuits): the switch is on
  // whenever clock(t) > threshold, read at the stamp's time (a transient
  // step's, or the operating point's OpOptions::source_time); AC and
  // noise use the clock value at t = 0.  set_on() is ignored while
  // clocked.
  void set_clock(Waveform clock, double threshold = 0.5);

  void stamp(ckt::StampContext& ctx) const final;
  // Stamps a run of devices that are all of this concrete class
  // (one devirtualized loop; see RealSystem batched assembly).
  static void stamp_batch(const ckt::Device* const* devs,
                          std::size_t n, ckt::StampContext& ctx);
  // Interval transfer: resistance in [r_on, r_off] regardless of the
  // control state, i.e. the on/off union over every digital code (the
  // PGA gain-code sweep collapses to one analysis).
  void range_eval(ckt::RangeContext& ctx) const override;
  void stamp_ac(ckt::AcStampContext& ctx) const override;
  bool is_nonlinear() const override { return true; }
  void append_noise_sources(std::vector<ckt::NoiseSource>& out,
                            double temp_k) const override;

 private:
  bool on_at(double t) const {
    return clock_ ? clock_->value(t) > clock_threshold_ : on_;
  }

  double r_on_, r_off_;
  bool on_;
  std::optional<Waveform> clock_;
  double clock_threshold_ = 0.5;
};

}  // namespace msim::dev
