// Voice front-end walkthrough (paper Figure 1).
//
// Transmit: microphone EMF -> transistor-level PGA (the paper's
// microphone amplifier) at several gain codes, reporting level and S/N
// at the modulator input.  Receive: DAC sine -> transistor-level
// class-AB buffer into the 50 ohm earpiece, reporting power and THD.
#include <cstdio>

#include "analysis/ac.h"
#include "analysis/noise.h"
#include "analysis/op.h"
#include "circuit/netlist.h"
#include "core/characterize.h"
#include "process/process.h"
#include "signal/psophometric.h"

using namespace msim;

int main() {
  const auto pm = proc::ProcessModel::cmos12();

  // ------------------------------------------------ transmit path
  std::printf("transmit path: microphone -> PGA -> modulator input\n");
  std::printf("%-8s %-12s %-14s %-12s\n", "code", "gain [dB]",
              "Vmod [Vrms]", "S/N psoph [dB]");
  for (int code : {0, 2, 5}) {
    ckt::Netlist nl;
    // 6 mVrms microphone EMF, split differentially.
    const double vmic_rms = 6e-3;
    auto mic = core::build_mic_into(nl, {}, pm).mic;
    mic.set_gain_code(code);
    if (!an::solve_op(nl).converged) continue;
    const auto ac = an::run_ac(nl, {1e3});
    const double gain = std::abs(ac.vdiff(0, mic.outp, mic.outn));

    an::NoiseOptions nopt;
    nopt.out_p = mic.outp;
    nopt.out_n = mic.outn;
    nopt.input_source = "Vinp";
    const auto freqs = an::log_frequencies(100.0, 20e3, 20);
    const auto noise = an::run_noise(nl, freqs, nopt);
    auto psd = [&](double f) {
      for (std::size_t i = 1; i < noise.points.size(); ++i)
        if (noise.points[i].freq_hz >= f) return noise.points[i].s_out;
      return noise.points.back().s_out;
    };
    const double v_mod = vmic_rms * gain;
    const double snr = sig::weighted_snr_db(v_mod, psd, 300.0, 3400.0);
    std::printf("%-8d %-12.1f %-14.3f %-12.1f\n", code,
                an::to_db(gain), v_mod, snr);
  }

  // ------------------------------------------------ receive path
  std::printf("\nreceive path: DAC -> class-AB buffer -> 50 ohm earpiece\n");
  // The buffer at 3 V in its inverting connection, the DAC's 1 kHz
  // sine (0.9 V per side) on its sources; one steady period by shooting
  // PSS.
  ckt::Netlist nl;
  const auto drv = core::build_drv_into(nl, 3.0, {}, 0.0, pm);
  if (const auto h = core::drv_tone(nl, drv, 0.9)) {
    std::printf("  output: %.2f Vpp, %.1f mW into 50 ohm, THD %.3f %%\n",
                2.0 * h->fundamental_amp, core::tone_power_mw(*h, 50.0),
                h->thd * 100.0);
  }
  return 0;
}
