// Waveform meters: RMS, single-bin DFT (Goertzel), harmonic distortion
// and spectral estimation.  These are the software equivalents of the
// audio analyzer used for the paper's HD / output-spectrum measurements.
#pragma once

#include <complex>
#include <vector>

namespace msim::sig {

double mean(const std::vector<double>& x);
double rms(const std::vector<double>& x);        // includes DC
double rms_ac(const std::vector<double>& x);     // DC removed

// Single-frequency DFT of a uniformly sampled waveform (Goertzel).
// Returns the complex amplitude normalized so that a pure sine
// A*sin(2*pi*f*t) yields magnitude A (i.e. 2/N scaling).
std::complex<double> goertzel(const std::vector<double>& x, double dt,
                              double freq_hz);

struct HarmonicAnalysis {
  double fundamental_amp = 0.0;         // amplitude of h1
  std::vector<double> harmonic_amp;     // amplitudes of h2..hN
  double thd = 0.0;                     // sqrt(sum h_k^2)/h1, k >= 2
  double thd_db = 0.0;                  // 20*log10(thd)
};

// Measures the fundamental and `n_harmonics` harmonics of a waveform
// sampled at step `dt`; the capture should contain an integer number of
// fundamental periods for exact results.
HarmonicAnalysis measure_harmonics(const std::vector<double>& x, double dt,
                                   double f0_hz, int n_harmonics = 9);

// Coherent-sampling plan for a tone at `f0_hz`: snaps a requested
// sample step so that an integer number of samples spans EXACTLY one
// fundamental period (samples_per_period * dt == 1/f0).  Captures built
// on the plan put every harmonic dead on a DFT bin, so the rectangular-
// window Goertzel of measure_harmonics is leakage-free -- this is how
// the transient/PSS distortion rigs choose dt.  A dt_request <= 0 asks
// for the default 1000 samples per period.  The plan is empty
// (samples_per_period 0) when f0_hz <= 0 or when one period needs more
// steps than an int counts.
struct CoherentPlan {
  int samples_per_period = 0;  // N: N * dt covers one period exactly
  double dt = 0.0;             // snapped step, (1/f0) / N
  bool snapped = false;        // true when dt_request was adjusted
};
CoherentPlan plan_coherent_capture(double f0_hz, double dt_request,
                                   int min_samples_per_period = 16);

// Windowed-interpolation fallback for captures that are NOT an integer
// number of fundamental periods (settle transients with arbitrary
// record windows, externally supplied data): applies a periodic Hann
// window before the per-harmonic Goertzel and corrects amplitudes for
// the window's 0.5 coherent gain.  Leakage from a non-bin-centered
// fundamental falls off much faster than with the rectangular window,
// at the cost of ~1.5 bins of spectral smearing.  Prefer coherent
// capture + measure_harmonics when you control dt.
HarmonicAnalysis measure_harmonics_windowed(const std::vector<double>& x,
                                            double dt, double f0_hz,
                                            int n_harmonics = 9);

// Amplitude spectrum (2/N-normalized, rectangular window) of a waveform;
// returns {freq_hz, amplitude} pairs up to Nyquist.
struct SpectrumPoint {
  double freq_hz;
  double amplitude;
};
std::vector<SpectrumPoint> amplitude_spectrum(const std::vector<double>& x,
                                              double dt);

}  // namespace msim::sig
