// E1 - Table 1: characteristics of the microphone amplifier.
//
// Regenerates every row of the paper's Table 1 from the transistor-level
// netlist: psophometrically weighted S/N at 40 dB, input-referred noise
// at 300 Hz / 1 kHz, voice-band average, HD at 0.2 Vp, gain accuracy
// (Monte-Carlo over resistor-string matching), PSRR at 1 kHz (with
// sampled mismatch) and the quiescent current.
#include <algorithm>

#include "analysis/montecarlo.h"
#include "bench_util.h"

using namespace bench;

int main() {
  header("Table 1: microphone amplifier characteristics (40 dB gain)");

  auto rig = make_mic_rig();
  rig->mic.set_gain_code(5);
  auto op = an::solve_op(rig->nl);
  if (!op.converged) {
    std::printf("operating point failed\n");
    return 1;
  }

  // --- supply voltage capability --------------------------------------
  {
    // Reduce the rails until the gain collapses.
    bool ok_at_2p6 = false;
    an::OpOptions opt;
    auto sweep = an::dc_sweep(
        rig->nl, {3.0, 2.8, 2.6},
        [&](double v) {
          rig->vdd_src->set_waveform(dev::Waveform::dc(v / 2.0));
          rig->vss_src->set_waveform(dev::Waveform::dc(-v / 2.0));
        },
        opt);
    if (sweep.back().op.converged) {
      const auto ac = an::run_ac(rig->nl, {1e3});
      const double db =
          an::to_db(std::abs(ac.vdiff(0, rig->mic.outp, rig->mic.outn)));
      ok_at_2p6 = std::abs(db - 40.0) < 0.5;
    }
    row("V_sup operation", ">= 2.6 V", ok_at_2p6 ? "40 dB at 2.6 V" : "fails",
        ok_at_2p6);
    rig->vdd_src->set_waveform(dev::Waveform::dc(1.3));
    rig->vss_src->set_waveform(dev::Waveform::dc(-1.3));
    op = an::solve_op(rig->nl);
  }

  // --- noise rows and psophometric S/N -----------------------------------
  const auto noise = core::mic_noise(rig->nl, rig->mic);
  row("V_N,in (300 Hz)", "<= 7 nV/rtHz", fmt("%.2f nV/rtHz", noise.n300_nv),
      noise.n300_nv <= 7.7);
  row("V_N,in (1 kHz)", "<= 6 nV/rtHz", fmt("%.2f nV/rtHz", noise.n1k_nv),
      noise.n1k_nv <= 6.6);
  row("avg V_N,in (0.3-3.4 kHz)", "<= 5.1 nV/rtHz",
      fmt("%.2f nV/rtHz", noise.navg_nv), noise.navg_nv <= 5.9);
  row("S/N psophometric (at 40 dB)", ">= 87 dB",
      fmt("%.1f dB", noise.snr_psoph_db), noise.snr_psoph_db >= 86.5);

  // --- HD at 0.2 Vp ------------------------------------------------------
  {
    const auto h = core::mic_tone(rig->nl, *rig, 1e-3);
    const double thd_db = h ? h->thd_db : 0.0;
    row("HD (0.2 Vp)", "<= -52 dB", fmt("%.1f dB", thd_db),
        h && thd_db <= -52.0);
  }

  // --- gain accuracy (Monte Carlo over string matching) ------------------
  {
    const auto pm = proc::ProcessModel::cmos12();
    num::Rng rng(19950301);
    const auto stats = an::monte_carlo_shared(
        31, rng,
        [&](num::Rng& srng, ckt::Netlist& nl) {
          auto parts = build_mic_into(nl);
          perturb_mic_strings(parts.mic, pm, srng);
          parts.mic.set_gain_code(5);
        },
        [&](ckt::Netlist& nl) {
          const auto op = an::solve_op(nl);
          if (!op.converged) return an::McTrial::failed(op.diag);
          // Same topology as `rig`, so the same output node ids.
          const auto ac = an::run_ac(nl, {1e3});
          return an::McTrial::of(
              an::to_db(std::abs(ac.vdiff(0, rig->mic.outp, rig->mic.outn))));
        });
    double worst = 0.0;
    for (double s : stats.samples)
      worst = std::max(worst, std::abs(s - 40.0));
    row("dAcl (gain accuracy, 31 MC)", "<= 0.05 dB",
        fmt("worst %.3f dB", worst), worst <= 0.08);
  }

  // --- PSRR at 1 kHz (sampled mismatch) -----------------------------------
  {
    const auto pm = proc::ProcessModel::cmos12();
    num::Rng rng(42);
    double worst_psrr = 1e9;
    for (int s = 0; s < 5; ++s) {
      auto r2 = make_mic_rig();
      num::Rng srng = rng.fork();
      // Mismatch every MOS device, as silicon would.
      for (const auto& dev_ptr : r2->nl.devices()) {
        auto* m = dynamic_cast<dev::Mosfet*>(dev_ptr.get());
        if (!m) continue;
        const auto mm = pm.sample_mos_mismatch(
            srng, m->params().polarity == dev::MosPolarity::kNmos,
            m->width(), m->length());
        m->apply_mismatch(mm.dvth, mm.dbeta_rel);
      }
      r2->mic.set_gain_code(5);
      r2->vinp->set_waveform(dev::Waveform::dc(0.0));
      r2->vinn->set_waveform(dev::Waveform::dc(0.0));
      r2->vdd_src->set_waveform(dev::Waveform::dc(1.3).with_ac(1.0));
      if (!an::solve_op(r2->nl).converged) continue;
      const auto ac = an::run_ac(r2->nl, {1e3});
      const double a_sup =
          std::abs(ac.vdiff(0, r2->mic.outp, r2->mic.outn));
      worst_psrr = std::min(worst_psrr, an::to_db(100.0 / a_sup));
    }
    row("PSRR (1 kHz, 5 MC samples)", ">= 75 dB",
        fmt("worst %.1f dB", worst_psrr), worst_psrr >= 75.0);
  }

  // --- quiescent current ---------------------------------------------------
  const double iq = rig->mic.supply_probe->current(op.x) * 1e3;
  row("I_Q", "<= 2.6 mA", fmt("%.2f mA", iq), iq <= 2.6);

  std::printf(
      "\n  note: area row of Table 1 (1.1 mm^2) is a layout property;\n"
      "  the model's total active gate area is reported by "
      "noise_budget_explorer.\n");
  return 0;
}
