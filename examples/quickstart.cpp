// Quickstart: build a circuit, run every analysis the library offers.
//
// A single common-source MOS amplifier is enough to demonstrate:
//   * netlist construction from the public API,
//   * DC operating point (with device OP inspection),
//   * AC transfer function,
//   * noise analysis with per-source breakdown,
//   * distortion over one periodic-steady-state period (shooting Newton
//     on the transient engine).
#include <algorithm>
#include <cstdio>

#include "analysis/ac.h"
#include "analysis/noise.h"
#include "analysis/op.h"
#include "analysis/pss.h"
#include "circuit/netlist.h"
#include "devices/mosfet.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "process/process.h"

using namespace msim;

int main() {
  // 1. Build: a 3 V supply, an NMOS with a 10 kOhm drain resistor,
  //    gate biased for roughly 1 mA and driven by a small sine.
  ckt::Netlist nl;
  const auto vdd = nl.node("vdd");
  const auto gate = nl.node("gate");
  const auto drain = nl.node("drain");
  const auto pm = proc::ProcessModel::cmos12();

  nl.add<dev::VSource>("Vdd", vdd, ckt::kGround, 3.0);
  nl.add<dev::VSource>(
      "Vin", gate, ckt::kGround,
      dev::Waveform::sine(1.0, 10e-3, 1e3).with_ac(1.0));
  nl.add<dev::Resistor>("RL", vdd, drain, 10e3);
  auto* m1 = nl.add<dev::Mosfet>("M1", drain, gate, ckt::kGround,
                                 ckt::kGround, pm.nmos(), 100e-6, 2e-6);

  // 2. DC operating point.
  const auto op = an::solve_op(nl);
  if (!op.converged) {
    std::printf("OP failed\n");
    return 1;
  }
  std::printf("operating point: V(drain) = %.3f V, Id = %.1f uA, "
              "gm = %.2f mS (%s)\n",
              op.v(drain), m1->op().id * 1e6, m1->op().gm * 1e3,
              m1->op().saturated ? "saturation" : "triode");

  // 3. AC: gain magnitude at a few frequencies.
  const auto ac = an::run_ac(nl, {1e2, 1e4, 1e6, 1e8});
  std::printf("\nAC gain |v(drain)/v(gate)|:\n");
  for (std::size_t i = 0; i < ac.freqs_hz.size(); ++i)
    std::printf("  f = %8.0f Hz   %6.2f dB\n", ac.freqs_hz[i],
                an::to_db(std::abs(ac.v(i, drain))));

  // 4. Noise: input-referred density and the dominant contributors.
  an::NoiseOptions nopt;
  nopt.out_p = drain;
  nopt.input_source = "Vin";
  const auto freqs = an::log_frequencies(10.0, 1e6, 10);
  const auto noise = an::run_noise(nl, freqs, nopt);
  std::printf("\ninput-referred noise: %.2f nV/rtHz at 1 kHz, "
              "%.2f nV/rtHz at 1 MHz\n",
              std::sqrt(noise.points[30].s_in) * 1e9,
              std::sqrt(noise.points.back().s_in) * 1e9);
  auto top = noise.by_source;
  std::sort(top.begin(), top.end(),
            [](const auto& a, const auto& b) { return a.v2 > b.v2; });
  std::printf("dominant noise sources (integrated):\n");
  for (std::size_t i = 0; i < 3 && i < top.size(); ++i)
    std::printf("  %-14s %.3e V^2\n", top[i].label.c_str(), top[i].v2);

  // 5. Periodic steady state: distortion of the 10 mV drive over one
  //    steady period of the deck's tone.
  an::PssOptions po;
  po.tran.dt = 1e-6;
  const auto pss = an::run_pss_shooting(nl, po);
  if (pss.ok) {
    const auto h = pss.harmonics(pss.node_wave(drain));
    std::printf("\nperiodic steady state: fundamental %.3f Vp, THD %.2f %%\n",
                h.fundamental_amp, h.thd * 100.0);
  }
  return 0;
}
