// Time-domain waveform descriptions for independent sources: DC, sine,
// pulse and piecewise-linear, plus a small-signal AC magnitude/phase used
// by the AC and noise analyses.
#pragma once

#include <array>
#include <cmath>
#include <complex>

#include "numeric/interp.h"
#include "numeric/interval.h"

namespace msim::dev {

class Waveform {
 public:
  enum class Kind { kDc, kSin, kPulse, kPwl };

  Waveform() = default;

  static Waveform dc(double value) {
    Waveform w;
    w.kind_ = Kind::kDc;
    w.dc_ = value;
    return w;
  }

  // offset + ampl * sin(2*pi*freq*(t - delay)), 0 before `delay`.
  static Waveform sine(double offset, double ampl, double freq_hz,
                       double delay = 0.0, double damping = 0.0) {
    Waveform w;
    w.kind_ = Kind::kSin;
    w.dc_ = offset;
    w.sin_ampl_ = ampl;
    w.sin_freq_ = freq_hz;
    w.sin_delay_ = delay;
    w.sin_damp_ = damping;
    return w;
  }

  static Waveform pulse(double v1, double v2, double td, double tr,
                        double tf, double pw, double period) {
    Waveform w;
    w.kind_ = Kind::kPulse;
    w.dc_ = v1;
    w.p_v2_ = v2;
    w.p_td_ = td;
    w.p_tr_ = tr;
    w.p_tf_ = tf;
    w.p_pw_ = pw;
    w.p_per_ = period;
    return w;
  }

  static Waveform pwl(std::vector<double> times, std::vector<double> values) {
    Waveform w;
    w.kind_ = Kind::kPwl;
    w.pwl_ = num::PiecewiseLinear(std::move(times), std::move(values));
    return w;
  }

  // Small-signal excitation used by AC analysis (does not affect value()).
  Waveform& with_ac(double mag, double phase_rad = 0.0) {
    ac_mag_ = mag;
    ac_phase_ = phase_rad;
    return *this;
  }

  double dc_value() const { return value(0.0); }

  // Hull of value(t) over all t >= 0: the interval the value-range
  // static analysis widens this source to.  Exact for DC and pulse,
  // conservative for sine (damping and delay only shrink the swing)
  // and PWL (flat extrapolation stays inside the table hull).
  num::Interval range() const {
    switch (kind_) {
      case Kind::kDc:
        return num::Interval::point(dc_);
      case Kind::kSin: {
        const double a = std::abs(sin_ampl_);
        return {dc_ - a, dc_ + a};
      }
      case Kind::kPulse:
        return num::Interval::bounds(dc_, p_v2_);
      case Kind::kPwl:
        if (pwl_.empty()) return num::Interval::point(0.0);
        return {pwl_.y_min(), pwl_.y_max()};
    }
    return num::Interval::top();
  }

  double ac_mag() const { return ac_mag_; }
  double ac_phase() const { return ac_phase_; }
  // std::polar's formula without its mag >= 0 assert (mags may be < 0).
  std::complex<double> ac_phasor() const {
    return {ac_mag_ * std::cos(ac_phase_), ac_mag_ * std::sin(ac_phase_)};
  }

  // Shape introspection for periodic-steady-state tone detection: a deck
  // drives a single tone when every non-DC source is the same undamped,
  // undelayed sine (see an::single_tone_hz).
  Kind kind() const { return kind_; }
  double sine_ampl() const { return sin_ampl_; }
  double sine_freq() const { return sin_freq_; }
  double sine_delay() const { return sin_delay_; }
  double sine_damping() const { return sin_damp_; }
  // The seven pulse() arguments in order: v1 v2 td tr tf pw period.
  std::array<double, 7> pulse_args() const {
    return {dc_, p_v2_, p_td_, p_tr_, p_tf_, p_pw_, p_per_};
  }
  const num::PiecewiseLinear& pwl_table() const { return pwl_; }

  double value(double t) const {
    switch (kind_) {
      case Kind::kDc:
        return dc_;
      case Kind::kSin: {
        if (t < sin_delay_) return dc_;
        const double tt = t - sin_delay_;
        const double envelope = std::exp(-sin_damp_ * tt);
        return dc_ + sin_ampl_ * envelope *
                         std::sin(2.0 * M_PI * sin_freq_ * tt);
      }
      case Kind::kPulse: {
        if (t < p_td_) return dc_;
        double tp = std::fmod(t - p_td_, p_per_ > 0.0 ? p_per_ : 1e300);
        if (tp < p_tr_) return dc_ + (p_v2_ - dc_) * (tp / p_tr_);
        tp -= p_tr_;
        if (tp < p_pw_) return p_v2_;
        tp -= p_pw_;
        if (tp < p_tf_) return p_v2_ + (dc_ - p_v2_) * (tp / p_tf_);
        return dc_;
      }
      case Kind::kPwl:
        return pwl_(t);
    }
    return 0.0;
  }

 private:
  Kind kind_ = Kind::kDc;
  double dc_ = 0.0;
  double ac_mag_ = 0.0;
  double ac_phase_ = 0.0;
  double sin_ampl_ = 0.0, sin_freq_ = 0.0, sin_delay_ = 0.0,
         sin_damp_ = 0.0;
  double p_v2_ = 0.0, p_td_ = 0.0, p_tr_ = 1e-9, p_tf_ = 1e-9, p_pw_ = 0.0,
         p_per_ = 0.0;
  num::PiecewiseLinear pwl_;
};

}  // namespace msim::dev
