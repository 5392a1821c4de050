// E5 - Figure 11: output spectrum of the power amplifier.
//
// Paper conditions: Vsup = 3 V, balance voltage mid-supply, differential
// load 50 ohm or 100 nF.  Regenerates the analyzer display: harmonic
// amplitudes (dBc) of one steady (PSS) period of the buffer output for
// both load cases.
#include "bench_util.h"

using namespace bench;

namespace {

void spectrum_case(const char* label, double c_load) {
  auto rig = make_drv_rig(3.0, core::DriverDesign{}, c_load);
  const double f0 = 1e3;
  const auto h = core::drv_tone(rig->nl, *rig, 1.0);
  if (!h) {
    std::printf("  %s: PSS failed\n", label);
    return;
  }
  std::printf("\n  load = %s, 4 Vpp output at %g Hz\n", label, f0);
  std::printf("  %-10s %-12s\n", "harmonic", "level [dBc]");
  std::printf("  %-10s %-12.1f\n", "H1", 0.0);
  for (std::size_t k = 0; k < h->harmonic_amp.size(); ++k) {
    const double dbc =
        h->harmonic_amp[k] > 0.0
            ? 20.0 * std::log10(h->harmonic_amp[k] / h->fundamental_amp)
            : -200.0;
    std::printf("  H%-9zu %-12.1f\n", k + 2, dbc);
  }
  std::printf("  THD = %.3f %% (%.1f dB)  [paper: <= 0.5 %%]\n",
              h->thd * 100.0, h->thd_db);
}

}  // namespace

int main() {
  header("Figure 11: power-buffer output spectrum (Vsup = 3 V)");
  spectrum_case("50 ohm", 0.0);
  spectrum_case("50 ohm || 100 nF", 100e-9);
  return 0;
}
