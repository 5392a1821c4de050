// Hands-free gain control: the paper's motivating use case.
//
// "The programmability of the analogue front-end offers the possibility
// of hands free operation of the hand-set under software control."
// A software AGC loop watches the PGA output level and steps the 6 dB
// gain codes so a wildly varying acoustic level stays inside the
// modulator's optimal range (the Eq. (2) level plan).
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/ac.h"
#include "analysis/op.h"
#include "circuit/netlist.h"
#include "core/characterize.h"

using namespace msim;

int main() {
  // Build the transistor-level PGA once; the AGC only flips switches.
  ckt::Netlist nl;
  auto mic = core::build_mic_into(nl).mic;

  // Acoustic scenario: speaker distance changes -> mic EMF (rms) swings
  // over ~30 dB, far more than the modulator's comfortable range.
  const std::vector<std::pair<const char*, double>> scene = {
      {"handset, normal speech", 6e-3}, {"handset, loud talker", 20e-3},
      {"hands-free, 0.5 m", 2e-3},      {"hands-free, 2 m", 0.6e-3},
      {"hands-free, whisper", 0.25e-3}, {"back to handset", 6e-3},
  };
  const double target_rms = 0.6;   // modulator full-scale usage
  const double high_rms = 0.75;    // step down above this
  const double low_rms = 0.35;     // step up below this

  int code = 2;
  std::printf("%-26s %-12s %-6s %-12s %-10s\n", "scene", "mic [mVrms]",
              "code", "gain [dB]", "out [Vrms]");
  for (const auto& [name, v_mic] : scene) {
    // AGC iteration: measure, then step the code until in range.
    for (int iter = 0; iter < core::kMicGainCodes; ++iter) {
      mic.set_gain_code(code);
      if (!an::solve_op(nl).converged) break;
      const auto ac = an::run_ac(nl, {1e3});
      const double gain = std::abs(ac.vdiff(0, mic.outp, mic.outn));
      const double v_out = v_mic * gain;
      if (v_out > high_rms && code > 0) {
        --code;
        continue;
      }
      if (v_out < low_rms && code < core::kMicGainCodes - 1) {
        ++code;
        continue;
      }
      std::printf("%-26s %-12.2f %-6d %-12.1f %-10.3f %s\n", name,
                  v_mic * 1e3, code, an::to_db(gain), v_out,
                  (v_out <= high_rms && v_out >= low_rms) ? ""
                                                          : "(range limit)");
      break;
    }
  }
  std::printf("\ntarget window: %.2f .. %.2f Vrms around %.2f Vrms "
              "(Eq. 2 level plan)\n",
              low_rms, high_rms, target_rms);
  return 0;
}
