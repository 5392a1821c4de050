// E2 - Figure 5: the gain-programming circuit.
//
// Regenerates the gain-vs-code staircase: closed-loop gain at each of the
// six codes, step sizes (6 dB nominal) and the Monte-Carlo distribution
// of the gain error under matched-resistor statistics.
#include <algorithm>

#include "analysis/montecarlo.h"
#include "bench_util.h"

using namespace bench;

int main() {
  header("Figure 5: gain programming, 10-40 dB in 6 dB steps");

  auto rig = make_mic_rig();
  std::printf("  %-6s %-12s %-12s %-12s\n", "code", "ideal [dB]",
              "meas [dB]", "step [dB]");
  double prev = 0.0;
  double worst_abs = 0.0, worst_step = 0.0;
  for (int code = 0; code < core::kMicGainCodes; ++code) {
    rig->mic.set_gain_code(code);
    if (!an::solve_op(rig->nl).converged) {
      std::printf("  code %d: OP failed\n", code);
      return 1;
    }
    const auto ac = an::run_ac(rig->nl, {1e3});
    const double db =
        an::to_db(std::abs(ac.vdiff(0, rig->mic.outp, rig->mic.outn)));
    const double ideal = core::MicAmp::code_gain_db(code);
    std::printf("  %-6d %-12.1f %-12.3f %-12.3f\n", code, ideal, db,
                code ? db - prev : 0.0);
    worst_abs = std::max(worst_abs, std::abs(db - ideal));
    if (code) worst_step = std::max(worst_step, std::abs(db - prev - 6.0));
    prev = db;
  }
  row("worst |gain error|", "<= 0.05 dB", fmt("%.3f dB", worst_abs),
      worst_abs <= 0.05);
  row("worst |step - 6 dB|", "~ 0 dB", fmt("%.3f dB", worst_step),
      worst_step <= 0.05);

  // Monte-Carlo gain error per code (resistor-string matching).
  const auto pm = proc::ProcessModel::cmos12();
  std::printf("\n  Monte-Carlo gain error (25 samples/code):\n");
  std::printf("  %-6s %-14s %-14s\n", "code", "sigma [dB]", "worst [dB]");
  for (int code = 0; code < core::kMicGainCodes; ++code) {
    num::Rng rng(1000 + code);
    const auto stats = an::monte_carlo_shared(
        25, rng,
        [&](num::Rng& srng, ckt::Netlist& nl) {
          auto parts = build_mic_into(nl);
          perturb_mic_strings(parts.mic, pm, srng);
          parts.mic.set_gain_code(code);
        },
        [&](ckt::Netlist& nl) {
          const auto op = an::solve_op(nl);
          if (!op.converged) return an::McTrial::failed(op.diag);
          // Same topology as `rig`, so the same output node ids.
          const auto ac = an::run_ac(nl, {1e3});
          return an::McTrial::of(
              an::to_db(
                  std::abs(ac.vdiff(0, rig->mic.outp, rig->mic.outn))) -
              core::MicAmp::code_gain_db(code));
        });
    double worst = 0.0;
    for (double s : stats.samples) worst = std::max(worst, std::abs(s));
    std::printf("  %-6d %-14.4f %-14.4f\n", code, stats.stddev(), worst);
  }
  return 0;
}
