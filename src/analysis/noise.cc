#include "analysis/noise.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analysis/mna.h"
#include "analysis/structural.h"
#include "core/parallel.h"

namespace msim::an {
namespace {

// Everything one frequency point produces: the public NoisePoint plus a
// failure marker.  The per-source output contributions live in one flat
// grid-wide buffer (point k, source j at k * nsrc + j) so the grid loop
// performs no per-point allocation.
struct PointData {
  NoisePoint pt;
  bool failed = false;
  int singular_col = -1;
  SolveStatus status = SolveStatus::kSingularMatrix;
};

// Trapezoidal integral of y(f) over [f1, f2] where y is tabulated on the
// (sorted) grid `f`; linear interpolation at clipped endpoints.
double trapz_clipped(const std::vector<double>& f,
                     const std::vector<double>& y, double f1, double f2) {
  if (f.size() < 2 || f2 <= f.front() || f1 >= f.back()) return 0.0;
  f1 = std::max(f1, f.front());
  f2 = std::min(f2, f.back());
  auto value_at = [&](double x) {
    const auto it = std::upper_bound(f.begin(), f.end(), x);
    std::size_t i = static_cast<std::size_t>(it - f.begin());
    if (i == 0) return y.front();
    if (i >= f.size()) return y.back();
    const double t = (x - f[i - 1]) / (f[i] - f[i - 1]);
    return y[i - 1] + t * (y[i] - y[i - 1]);
  };
  double acc = 0.0;
  double x_prev = f1, y_prev = value_at(f1);
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (f[i] <= f1) continue;
    const double x = std::min(f[i], f2);
    const double yy = (x == f[i]) ? y[i] : value_at(x);
    acc += 0.5 * (y_prev + yy) * (x - x_prev);
    x_prev = x;
    y_prev = yy;
    if (x >= f2) break;
  }
  if (x_prev < f2) acc += 0.5 * (y_prev + value_at(f2)) * (f2 - x_prev);
  return acc;
}

}  // namespace

double NoiseResult::integrate_output(double f1_hz, double f2_hz) const {
  std::vector<double> f, y;
  f.reserve(points.size());
  y.reserve(points.size());
  for (const auto& p : points) {
    f.push_back(p.freq_hz);
    y.push_back(p.s_out);
  }
  return trapz_clipped(f, y, f1_hz, f2_hz);
}

double NoiseResult::input_referred_rms(double f1_hz, double f2_hz) const {
  std::vector<double> f, y;
  f.reserve(points.size());
  y.reserve(points.size());
  for (const auto& p : points) {
    f.push_back(p.freq_hz);
    y.push_back(p.s_in);
  }
  return std::sqrt(trapz_clipped(f, y, f1_hz, f2_hz));
}

double NoiseResult::input_referred_avg_density(double f1_hz,
                                               double f2_hz) const {
  const double rms = input_referred_rms(f1_hz, f2_hz);
  return rms / std::sqrt(f2_hz - f1_hz);
}

NoiseResult run_noise_diag(ckt::Netlist& nl,
                           const std::vector<double>& freqs_hz,
                           const NoiseOptions& opt) {
  NoiseResult early;
  if (opt.out_p == ckt::kGround && opt.out_n == ckt::kGround) {
    early.diag.status = SolveStatus::kBadTopology;
    early.diag.stage = "noise";
    early.diag.detail = "noise analysis needs an output node";
    return early;
  }
  if (opt.lint) {
    SolveDiag pre = preflight(nl);
    if (!pre.ok()) {
      NoiseResult bad;
      bad.diag = std::move(pre);
      return bad;
    }
  }
  nl.assign_unknowns();

  // Collect all noise sources at the saved operating point.
  std::vector<ckt::NoiseSource> sources;
  for (const auto& d : nl.devices())
    d->append_noise_sources(sources, opt.temp_k);

  NoiseResult r;
  r.by_source.resize(sources.size());
  for (std::size_t j = 0; j < sources.size(); ++j)
    r.by_source[j].label = sources[j].label;

  const std::size_t n = static_cast<std::size_t>(nl.unknown_count());
  const std::size_t nf = freqs_hz.size();
  // The sweep's one stamp pass, made serially; the chunks share it.
  const AcImage image(nl, opt.solver, opt.gshunt);
  int threads = opt.threads == 0 ? core::default_thread_count()
                                 : std::max(1, opt.threads);
  const std::size_t nchunks =
      std::min<std::size_t>(static_cast<std::size_t>(threads), nf ? nf : 1);

  // Phase 1: the per-frequency solves (factor + forward + adjoint) are
  // independent; split the grid into contiguous chunks, one ComplexSystem
  // per chunk, each point writing only its own PointData slot and its own
  // stripe of the flat contribution buffer.
  const std::size_t nsrc = sources.size();
  std::vector<PointData> pts(nf);
  // Budget pre-fill: chunks the budget stops from starting must read as
  // budget-truncated at their first point, not as silent zero points.
  if (opt.budget) {
    for (std::size_t c = 0; c < nchunks; ++c) {
      const std::size_t lo = nf * c / nchunks;
      const std::size_t hi = nf * (c + 1) / nchunks;
      if (lo < hi) {
        pts[lo].failed = true;
        pts[lo].status = SolveStatus::kBudgetExceeded;
      }
    }
  }
  std::vector<double> contribs(nf * nsrc, 0.0);
  core::parallel_for(
      static_cast<int>(nchunks), nchunks,
      [&](std::size_t c) {
        const std::size_t lo = nf * c / nchunks;
        const std::size_t hi = nf * (c + 1) / nchunks;
        if (lo >= hi) return;
        ComplexSystem sys(image);
        num::ComplexVector x, y, e;
        for (std::size_t k = lo; k < hi; ++k) {
          const double f = freqs_hz[k];
          PointData& pd = pts[k];
          if (opt.budget) {
            const core::StopReason stop = opt.budget->stop_reason();
            if (stop != core::StopReason::kNone) {
              pd.failed = true;
              pd.status = stop == core::StopReason::kCancelled
                              ? SolveStatus::kCancelled
                              : SolveStatus::kBudgetExceeded;
              return;
            }
            opt.budget->note_step();
            pd.failed = false;  // clear any chunk-start marker
          }
          sys.assemble(2.0 * M_PI * f);
          if (!sys.factor()) {
            pd.failed = true;
            pd.status = SolveStatus::kSingularMatrix;
            pd.singular_col = sys.singular_col();
            return;  // later points of this chunk would be discarded
          }

          pd.pt.freq_hz = f;

          // Forward solve for the signal gain (input-referring).
          if (!opt.input_source.empty()) {
            sys.solve(x);
            auto v = [&](ckt::NodeId nd) {
              return nd == ckt::kGround ? std::complex<double>{} : x[nd - 1];
            };
            pd.pt.gain_mag = std::abs(v(opt.out_p) - v(opt.out_n));
          }

          // Adjoint solve: A^T y = e_out.
          e.assign(n, {0.0, 0.0});
          if (opt.out_p != ckt::kGround) e[opt.out_p - 1] += 1.0;
          if (opt.out_n != ckt::kGround) e[opt.out_n - 1] -= 1.0;
          sys.solve_transpose(e, y);

          auto yv = [&](ckt::NodeId nd) {
            return nd == ckt::kGround ? std::complex<double>{} : y[nd - 1];
          };

          double* row = contribs.data() + k * nsrc;
          double s_out = 0.0;
          for (std::size_t j = 0; j < nsrc; ++j) {
            const auto& src = sources[j];
            const double z2 = std::norm(yv(src.p) - yv(src.n));
            const double contrib = z2 * src.psd(f);
            row[j] = contrib;
            s_out += contrib;
          }
          pd.pt.s_out = s_out;
          if (pd.pt.gain_mag > 0.0)
            pd.pt.s_in = s_out / (pd.pt.gain_mag * pd.pt.gain_mag);
        }
      },
      opt.budget);

  // Lowest failing frequency index wins (matches the serial analysis);
  // everything before it is kept.
  std::size_t keep = nf;
  for (std::size_t k = 0; k < nf; ++k)
    if (pts[k].failed) {
      keep = k;
      if (is_budget_stop(pts[k].status)) {
        r.truncated = true;
        const core::StopReason reason =
            opt.budget ? opt.budget->stop_reason()
                       : core::StopReason::kDeadline;
        r.diag = budget_stop_diag(
            reason, "noise",
            "grid truncated at f = " + std::to_string(freqs_hz[k]) +
                " Hz (" + std::to_string(keep) + " of " +
                std::to_string(nf) + " points solved)");
      } else {
        r.diag.status = pts[k].status;
        r.diag.stage = "noise";
        r.diag.unknown = unknown_label(nl, pts[k].singular_col);
        r.diag.device = device_touching_unknown(nl, pts[k].singular_col);
        r.diag.detail = "f = " + std::to_string(freqs_hz[k]) + " Hz";
      }
      break;
    }

  // Phase 2: sequential trapezoidal integration over the kept prefix --
  // identical accumulation order to the serial analysis.
  r.points.reserve(keep);
  for (std::size_t k = 0; k < keep; ++k) {
    if (k > 0) {
      const double df = freqs_hz[k] - freqs_hz[k - 1];
      const double* prev = contribs.data() + (k - 1) * nsrc;
      const double* cur = contribs.data() + k * nsrc;
      for (std::size_t j = 0; j < nsrc; ++j)
        r.by_source[j].v2 += 0.5 * (prev[j] + cur[j]) * df;
    }
    r.points.push_back(pts[k].pt);
  }
  return r;
}

NoiseResult run_noise(ckt::Netlist& nl, const std::vector<double>& freqs_hz,
                      const NoiseOptions& opt) {
  NoiseResult r = run_noise_diag(nl, freqs_hz, opt);
  if (!r.ok())
    throw std::runtime_error("noise analysis failed: " + r.diag.message());
  return r;
}

}  // namespace msim::an
