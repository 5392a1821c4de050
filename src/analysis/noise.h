// Small-signal noise analysis using the adjoint (transpose) method.
//
// For each frequency the MNA matrix A is factored once; a forward solve
// with the designated input source gives the signal gain H(f), and one
// transpose solve with the output selection vector gives the transfer
// impedance from *every* noise current source to the output
// simultaneously.  Output noise is the sum of |Z_j|^2 * S_j(f) over all
// device noise sources; input-referred noise divides by |H(f)|^2.
//
// This reproduces the measurement behind Figure 7 and the noise rows of
// Table 1 in the paper.
#pragma once

#include <string>
#include <vector>

#include "analysis/diag.h"
#include "analysis/mna.h"
#include "circuit/netlist.h"

namespace msim::an {

struct NoiseOptions {
  ckt::NodeId out_p = ckt::kGround;  // output sensed differentially
  ckt::NodeId out_n = ckt::kGround;
  // Device whose AC excitation defines the input for input-referring
  // (its waveform must carry ac magnitude 1).  May be empty: only output
  // noise is then computed.
  std::string input_source;
  double temp_k = 300.15;
  double gshunt = 1e-12;
  // Mandatory-by-default static pre-pass (an::preflight), as in
  // AcOptions: structural errors return kBadTopology at stage "lint".
  bool lint = true;
  // Linear-solver engine for the complex systems.
  SolverKind solver = SolverKind::kSparse;
  // Worker threads for the frequency grid (1 = serial, 0 = auto).  The
  // per-point solves parallelize over contiguous chunks; the trapezoidal
  // integration runs as a sequential pass afterwards, so results are
  // bit-identical to the serial analysis at any thread count.
  int threads = 1;
  // Optional run budget / cancel hook, polled once per frequency point.
  // On expiry the result keeps the solved grid prefix (points and
  // per-source integrals over it) with `truncated = true` and a
  // structured kBudgetExceeded / kCancelled diag.  Null = unlimited.
  core::RunBudget* budget = nullptr;
};

struct NoisePoint {
  double freq_hz = 0.0;
  double s_out = 0.0;      // output noise PSD [V^2/Hz]
  double gain_mag = 0.0;   // |H(f)| input -> output
  double s_in = 0.0;       // input-referred PSD [V^2/Hz] (0 if no input)
};

struct NoiseContribution {
  std::string label;       // e.g. "M1.flicker"
  double v2 = 0.0;         // integrated output noise power [V^2]
};

struct NoiseResult {
  // Structured failure diagnosis: kBadTopology when no output node was
  // given, kSingularMatrix (with the zero-pivot unknown) when the MNA
  // factorization fails at some frequency.
  SolveDiag diag;
  std::vector<NoisePoint> points;
  // Per-source integrated output power over the analysed grid.
  std::vector<NoiseContribution> by_source;
  // Budget / cancel partial-result flag: `points` (and the integrals)
  // cover the grid prefix solved before the cut.
  bool truncated = false;

  bool ok() const { return diag.ok(); }

  // Integrated output noise power [V^2] over [f1, f2] (trapezoidal on the
  // analysed grid, clipped to it).
  double integrate_output(double f1_hz, double f2_hz) const;
  // RMS input-referred noise voltage over [f1, f2].
  double input_referred_rms(double f1_hz, double f2_hz) const;
  // Average input-referred density over [f1, f2] in V/sqrt(Hz).
  double input_referred_avg_density(double f1_hz, double f2_hz) const;
};

// Non-throwing entry point: failures are reported through result.diag
// (points computed before the failure are retained).  A frequency that
// is not finite and > 0 is refused before any solve (an "invalid
// options" diag naming its index); an empty grid returns ok and empty.
NoiseResult run_noise_diag(ckt::Netlist& nl,
                           const std::vector<double>& freqs_hz,
                           const NoiseOptions& opt);

// Historical API: thin wrapper over run_noise_diag() that throws
// std::runtime_error carrying diag.message() on failure.
NoiseResult run_noise(ckt::Netlist& nl, const std::vector<double>& freqs_hz,
                      const NoiseOptions& opt);

}  // namespace msim::an
