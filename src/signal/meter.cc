#include "signal/meter.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "signal/fft.h"

namespace msim::sig {

double mean(const std::vector<double>& x) {
  if (x.empty()) return 0.0;
  double s = 0.0;
  for (double v : x) s += v;
  return s / static_cast<double>(x.size());
}

double rms(const std::vector<double>& x) {
  if (x.empty()) return 0.0;
  double s = 0.0;
  for (double v : x) s += v * v;
  return std::sqrt(s / static_cast<double>(x.size()));
}

double rms_ac(const std::vector<double>& x) {
  if (x.empty()) return 0.0;
  const double m = mean(x);
  double s = 0.0;
  for (double v : x) s += (v - m) * (v - m);
  return std::sqrt(s / static_cast<double>(x.size()));
}

std::complex<double> goertzel(const std::vector<double>& x, double dt,
                              double freq_hz) {
  const std::size_t n = x.size();
  if (n == 0) return {};
  const double w = 2.0 * M_PI * freq_hz * dt;
  const double cw = std::cos(w), sw = std::sin(w);
  const double coeff = 2.0 * cw;
  double s0 = 0.0, s1 = 0.0, s2 = 0.0;
  for (double v : x) {
    s0 = v + coeff * s1 - s2;
    s2 = s1;
    s1 = s0;
  }
  // Standard Goertzel terminal combination with 2/N amplitude scaling.
  const double re = s1 * cw - s2;
  const double im = s1 * sw;
  return {2.0 * re / double(n), 2.0 * im / double(n)};
}

HarmonicAnalysis measure_harmonics(const std::vector<double>& x, double dt,
                                   double f0_hz, int n_harmonics) {
  HarmonicAnalysis h;
  h.fundamental_amp = std::abs(goertzel(x, dt, f0_hz));
  const double nyquist = 0.5 / dt;
  double power = 0.0;
  for (int k = 2; k <= n_harmonics + 1; ++k) {
    const double fk = k * f0_hz;
    if (fk >= nyquist) break;
    const double a = std::abs(goertzel(x, dt, fk));
    h.harmonic_amp.push_back(a);
    power += a * a;
  }
  h.thd = h.fundamental_amp > 0.0 ? std::sqrt(power) / h.fundamental_amp
                                  : 0.0;
  h.thd_db = h.thd > 0.0 ? 20.0 * std::log10(h.thd) : -300.0;
  return h;
}

CoherentPlan plan_coherent_capture(double f0_hz, double dt_request,
                                   int min_samples_per_period) {
  CoherentPlan p;
  if (f0_hz <= 0.0) return p;
  const double period = 1.0 / f0_hz;
  if (dt_request <= 0.0) dt_request = period / 1000.0;
  const double n_req = period / dt_request;
  // More steps than the int count holds (or a NaN request): no plan.
  if (!(n_req < std::numeric_limits<int>::max())) return p;
  long n = std::lround(n_req);
  if (n < min_samples_per_period) n = min_samples_per_period;
  p.samples_per_period = static_cast<int>(n);
  p.dt = period / static_cast<double>(n);
  p.snapped =
      std::abs(p.dt - dt_request) > 1e-12 * std::max(p.dt, dt_request);
  return p;
}

HarmonicAnalysis measure_harmonics_windowed(const std::vector<double>& x,
                                            double dt, double f0_hz,
                                            int n_harmonics) {
  const std::size_t n = x.size();
  if (n < 2) return {};
  // Remove the mean first: the bias offset of a single-supply rig is
  // orders of magnitude above the harmonics, and the Hann window's DC
  // lobe would otherwise smear it into the low bins.
  const double m = mean(x);
  // Periodic Hann, coherent gain exactly 0.5 -> 2x amplitude correction.
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i)
    w[i] = (x[i] - m) *
           0.5 * (1.0 - std::cos(2.0 * M_PI * double(i) / double(n)));
  HarmonicAnalysis h;
  h.fundamental_amp = 2.0 * std::abs(goertzel(w, dt, f0_hz));
  const double nyquist = 0.5 / dt;
  double power = 0.0;
  for (int k = 2; k <= n_harmonics + 1; ++k) {
    const double fk = k * f0_hz;
    if (fk >= nyquist) break;
    const double a = 2.0 * std::abs(goertzel(w, dt, fk));
    h.harmonic_amp.push_back(a);
    power += a * a;
  }
  h.thd = h.fundamental_amp > 0.0 ? std::sqrt(power) / h.fundamental_amp
                                  : 0.0;
  h.thd_db = h.thd > 0.0 ? 20.0 * std::log10(h.thd) : -300.0;
  return h;
}

std::vector<SpectrumPoint> amplitude_spectrum(const std::vector<double>& x,
                                              double dt) {
  const auto bins = fft_real(x);
  const std::size_t n = bins.size();
  std::vector<SpectrumPoint> s;
  s.reserve(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double scale = (k == 0) ? 1.0 / double(x.size())
                                  : 2.0 / double(x.size());
    s.push_back({double(k) / (double(n) * dt), scale * std::abs(bins[k])});
  }
  return s;
}

}  // namespace msim::sig
