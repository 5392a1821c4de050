// E4 - Table 2: characteristics of the power buffer amplifier.
//
// Rows: rail-to-rail input, V_o,max at 0.6 % / 0.3 % HD (one amplitude
// sweep, both limits read from it), I_Q with Monte-Carlo spread,
// PSRR(1 kHz), slew rate and power into the load.
#include <algorithm>

#include "analysis/montecarlo.h"
#include "bench_util.h"

using namespace bench;

int main() {
  header("Table 2: power buffer characteristics");

  // --- input range -------------------------------------------------------
  {
    auto rig = make_drv_rig(3.0);
    an::OpOptions opt;
    bool rail_to_rail = true;
    const auto sweep = an::dc_sweep(
        rig->nl, {-1.4, -1.0, 0.0, 1.0, 1.4},
        [&](double v) {
          rig->vsp->set_waveform(dev::Waveform::dc(v));
          rig->vsn->set_waveform(dev::Waveform::dc(v));
        },
        opt);
    for (const auto& pt : sweep)
      if (!pt.op.converged) rail_to_rail = false;
    row("V_in,max", "rail to rail",
        rail_to_rail ? "rail to rail (CM sweep ok)" : "limited",
        rail_to_rail);
  }

  // --- output swing at distortion limits (Vsup = 2.6 V) -------------------
  {
    const auto sweep = core::drv_swing_sweep(2.6);
    const double v06 = sweep.max_vp(0.006);
    const double v03 = sweep.max_vp(0.003);
    // Paper: 4 Vpp (i.e. +-1 V/side) at <= 0.6 % HD, "200 mV from both
    // supply voltages"; Table 2 lists the margins from the rails.
    row("V_o,max (0.6 % HD)", "~1.1 V/side (200 mV off rail)",
        fmt("%.2f V/side", v06), v06 >= 1.0);
    row("V_o,max (0.3 % HD)", "~1.0 V/side (300 mV off rail)",
        fmt("%.2f V/side", v03), v03 >= 0.9);
  }

  // --- quiescent current and spread ---------------------------------------
  {
    const auto pm = proc::ProcessModel::cmos12();
    num::Rng rng(7);
    const std::string probe = make_drv_rig(2.6)->drv.supply_probe->name();
    const auto stats = an::monte_carlo_shared(
        15, rng,
        [&](num::Rng& srng, ckt::Netlist& nl) {
          const auto parts = build_drv_into(nl, 2.6);
          for (auto* m : {parts.drv.mop_p, parts.drv.mon_p, parts.drv.mop_n,
                          parts.drv.mon_n}) {
            const auto mm = pm.sample_mos_mismatch(
                srng, m->params().polarity == dev::MosPolarity::kNmos,
                m->width(), m->length());
            m->apply_mismatch(mm.dvth, mm.dbeta_rel);
          }
        },
        [&](ckt::Netlist& nl) {
          const auto op = an::solve_op(nl);
          if (!op.converged) return an::McTrial::failed(op.diag);
          return an::McTrial::of(
              nl.find_as<dev::VSource>(probe)->current(op.x) * 1e3);
        });
    row("I_Q (15 MC samples)", "3.25 +- 0.5 mA",
        fmt("%.2f", stats.mean()) + " +- " +
            fmt("%.2f mA (3 sigma)", 3.0 * stats.stddev()),
        std::abs(stats.mean() - 3.25) < 0.5);
  }

  // --- PSRR ---------------------------------------------------------------
  {
    const auto pm = proc::ProcessModel::cmos12();
    num::Rng rng(23);
    double worst = 1e9;
    for (int s = 0; s < 5; ++s) {
      auto rig = make_drv_rig(3.0);
      num::Rng srng = rng.fork();
      for (auto* m : {rig->drv.mop_p, rig->drv.mon_p, rig->drv.mop_n,
                      rig->drv.mon_n}) {
        const auto mm = pm.sample_mos_mismatch(
            srng, m->params().polarity == dev::MosPolarity::kNmos,
            m->width(), m->length());
        m->apply_mismatch(mm.dvth, mm.dbeta_rel);
      }
      if (!an::solve_op(rig->nl).converged) continue;
      rig->vdd_src->set_waveform(dev::Waveform::dc(1.5).with_ac(1.0));
      if (!an::solve_op(rig->nl).converged) continue;
      const auto ac = an::run_ac(rig->nl, {1e3});
      const double a_sup =
          std::abs(ac.vdiff(0, rig->drv.outp, rig->drv.outn));
      worst = std::min(worst, an::to_db(1.0 / a_sup));
    }
    row("PSRR (1 kHz, 5 MC samples)", ">= 78 dB",
        fmt("worst %.1f dB", worst), worst >= 78.0);
  }

  // --- slew rate ------------------------------------------------------------
  {
    auto rig = make_drv_rig(3.0);
    const double sr = core::drv_slew_v_per_us(rig->nl, *rig);
    row("SR (Vin = +-1 V)", "2.5 V/us", fmt("%.1f V/us", sr), sr >= 2.5);
  }

  // --- power into the load ----------------------------------------------------
  {
    auto rig = make_drv_rig(3.0);
    const auto h = core::drv_tone(rig->nl, *rig, 0.87);
    double p_mw = 0.0, thd = 1.0;
    if (h) {
      p_mw = core::tone_power_mw(*h, 50.0);
      thd = h->thd;
    }
    row("P into 50 ohm at 3 V, 0.5 % HD", "30 mW",
        fmt("%.1f mW at ", p_mw) + fmt("%.2f %% HD", thd * 100.0),
        p_mw >= 28.0 && thd <= 0.005);
  }
  return 0;
}
