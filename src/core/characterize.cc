#include "core/characterize.h"

#include <algorithm>
#include <cmath>

#include "analysis/ac.h"
#include "analysis/montecarlo.h"
#include "analysis/noise.h"
#include "analysis/op.h"
#include "analysis/pss.h"
#include "analysis/transient.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "numeric/units.h"
#include "signal/meter.h"
#include "signal/psophometric.h"

namespace msim::core {
namespace {

struct MicBench {
  ckt::Netlist nl;
  dev::VSource* vinp;
  dev::VSource* vinn;
  MicAmp mic;
};

std::unique_ptr<MicBench> mic_bench(const MicAmpDesign& d,
                                    const proc::ProcessModel& pm) {
  auto b = std::make_unique<MicBench>();
  const auto vdd = b->nl.node("vdd");
  const auto vss = b->nl.node("vss");
  const auto inp = b->nl.node("inp");
  const auto inn = b->nl.node("inn");
  b->nl.add<dev::VSource>("Vdd", vdd, ckt::kGround, 1.3);
  b->nl.add<dev::VSource>("Vss", vss, ckt::kGround, -1.3);
  b->vinp = b->nl.add<dev::VSource>(
      "Vinp", inp, ckt::kGround, dev::Waveform::dc(0.0).with_ac(0.5));
  b->vinn = b->nl.add<dev::VSource>(
      "Vinn", inn, ckt::kGround, dev::Waveform::dc(0.0).with_ac(-0.5));
  b->mic = build_mic_amp(b->nl, pm, d, vdd, vss, ckt::kGround, inp, inn);
  return b;
}

// Tone periods the settle-and-record fallback integrates and discards
// before its recorded periods.
constexpr double kSettlePeriods = 2.0;

// Differential THD of a tone-driven rig: shooting PSS (one steady
// period) when the rigged deck carries a single periodic tone, else --
// or when shooting fails to converge -- the settle-and-record
// transient.  Returns -1 on solver failure.
double rig_thd(ckt::Netlist& nl, ckt::NodeId outp, ckt::NodeId outn,
               double f0, double dt) {
  if (an::single_tone_hz(nl) > 0.0) {
    an::PssOptions po;
    po.f0_hz = f0;
    po.tran.dt = dt;
    const auto r = an::run_pss_shooting(nl, po);
    if (r.ok) return r.harmonics(r.diff_wave(outp, outn)).thd;
  }
  const double period = 1.0 / f0;
  an::TranOptions t;
  t.dt = sig::plan_coherent_capture(f0, dt).dt;
  t.record_after = kSettlePeriods * period;
  t.t_stop = t.record_after + 3.0 * period;
  const auto tr = an::run_transient(nl, t);
  if (!tr.ok) return -1.0;
  return sig::measure_harmonics(tr.diff_wave(outp, outn), t.dt, f0).thd;
}

}  // namespace

MicAmpDatasheet characterize_mic_amp(const MicAmpDesign& d,
                                     const proc::ProcessModel& pm,
                                     int gain_code, int mc_samples,
                                     unsigned seed) {
  MicAmpDatasheet ds;
  auto b = mic_bench(d, pm);
  b->mic.set_gain_code(gain_code);
  const auto op = an::solve_op(b->nl);
  if (!op.converged) return ds;
  ds.iq_ma = b->mic.supply_probe->current(op.x) * 1e3;

  // Gain and bandwidth.
  {
    const auto ac0 = an::run_ac(b->nl, {1e3});
    const double g = std::abs(ac0.vdiff(0, b->mic.outp, b->mic.outn));
    ds.gain_db = an::to_db(g);
    ds.gain_error_db = ds.gain_db - MicAmp::code_gain_db(gain_code);
    const auto freqs = an::log_frequencies(1e3, 100e6, 15);
    const auto ac = an::run_ac(b->nl, freqs);
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      if (std::abs(ac.vdiff(i, b->mic.outp, b->mic.outn)) <
          g / std::sqrt(2.0)) {
        ds.bw_3db_hz = freqs[i];
        break;
      }
    }
  }

  // Noise rows and S/N.
  {
    an::NoiseOptions nopt;
    nopt.out_p = b->mic.outp;
    nopt.out_n = b->mic.outn;
    nopt.input_source = "Vinp";
    nopt.temp_k = num::celsius_to_kelvin(25.0);
    const auto freqs = an::log_frequencies(100.0, 20e3, 20);
    const auto res = an::run_noise(b->nl, freqs, nopt);
    auto spot = [&](double f0) {
      double best = 1e18, val = 0.0;
      for (const auto& p : res.points) {
        const double e = std::abs(std::log(p.freq_hz / f0));
        if (e < best) {
          best = e;
          val = std::sqrt(p.s_in);
        }
      }
      return val;
    };
    ds.noise_300_nv = spot(300.0) * 1e9;
    ds.noise_1k_nv = spot(1e3) * 1e9;
    ds.noise_avg_nv =
        res.input_referred_avg_density(300.0, 3400.0) * 1e9;
    auto psd = [&](double f) {
      for (std::size_t i = 1; i < res.points.size(); ++i)
        if (res.points[i].freq_hz >= f) return res.points[i].s_out;
      return res.points.back().s_out;
    };
    ds.snr_psoph_db = sig::weighted_snr_db(0.6, psd, 300.0, 3400.0);
  }

  // Distortion at 0.2 Vp output.
  {
    const double gain = std::pow(10.0, ds.gain_db / 20.0);
    const double a_in = 0.2 / gain / 2.0;  // per-side amplitude
    b->vinp->set_waveform(dev::Waveform::sine(0.0, a_in, 1e3));
    b->vinn->set_waveform(dev::Waveform::sine(0.0, -a_in, 1e3));
    const double thd =
        rig_thd(b->nl, b->mic.outp, b->mic.outn, 1e3, 2e-6);
    if (thd >= 0.0)
      ds.thd_db = thd > 0.0 ? 20.0 * std::log10(thd) : -300.0;
  }

  // Input-referred offset from mismatch Monte Carlo.
  {
    num::Rng rng(seed);
    const double gain = std::pow(10.0, ds.gain_db / 20.0);
    const auto stats = an::monte_carlo_shared(
        mc_samples, rng,
        [&](num::Rng& srng, ckt::Netlist& nl) {
          auto b2 = mic_bench(d, pm);
          for (const auto& dv : b2->nl.devices()) {
            auto* m = dynamic_cast<dev::Mosfet*>(dv.get());
            if (!m) continue;
            const auto mm = pm.sample_mos_mismatch(
                srng, m->params().polarity == dev::MosPolarity::kNmos,
                m->width(), m->length());
            m->apply_mismatch(mm.dvth, mm.dbeta_rel);
          }
          b2->mic.set_gain_code(gain_code);
          nl = std::move(b2->nl);
        },
        [&](ckt::Netlist& nl) {
          // Every sample has the nominal bench's topology, so its
          // output node ids are the same.
          const auto op2 = an::solve_op(nl);
          if (!op2.converged) return an::McTrial::failed(op2.diag);
          return an::McTrial::of(
              (op2.v(b->mic.outp) - op2.v(b->mic.outn)) / gain);
        });
    ds.offset_sigma_mv = stats.stddev() * 1e3;
    ds.mc_failure_causes = stats.failure_causes();
  }

  ds.valid = true;
  return ds;
}

DriverDatasheet characterize_driver(const DriverDesign& d,
                                    const proc::ProcessModel& pm,
                                    double vsup) {
  DriverDatasheet ds;
  auto build = [&](ckt::Netlist& nl, dev::VSource*& vsp,
                   dev::VSource*& vsn) {
    const auto vdd = nl.node("vdd");
    const auto vss = nl.node("vss");
    const auto src_p = nl.node("src_p");
    const auto src_n = nl.node("src_n");
    const auto fb_p = nl.node("fb_p");
    const auto fb_n = nl.node("fb_n");
    nl.add<dev::VSource>("Vdd", vdd, ckt::kGround, vsup / 2.0);
    nl.add<dev::VSource>("Vss", vss, ckt::kGround, -vsup / 2.0);
    vsp = nl.add<dev::VSource>("Vsp", src_p, ckt::kGround, 0.0);
    vsn = nl.add<dev::VSource>("Vsn", src_n, ckt::kGround, 0.0);
    auto drv = build_class_ab_driver(nl, pm, d, vdd, vss, ckt::kGround,
                                     fb_p, fb_n);
    nl.add<dev::Resistor>("Ra1", src_p, fb_n, 20e3);
    nl.add<dev::Resistor>("Rf1", drv.outp, fb_n, 20e3);
    nl.add<dev::Resistor>("Ra2", src_n, fb_p, 20e3);
    nl.add<dev::Resistor>("Rf2", drv.outn, fb_p, 20e3);
    nl.add<dev::Resistor>("RL", drv.outp, drv.outn, 50.0);
    return drv;
  };

  // Quiescent point.
  {
    ckt::Netlist nl;
    dev::VSource *vsp, *vsn;
    auto drv = build(nl, vsp, vsn);
    const auto op = an::solve_op(nl);
    if (!op.converged) return ds;
    ds.iq_ma = drv.supply_probe->current(op.x) * 1e3;
    ds.iq_leg_ma = drv.out_probe_p->current(op.x) * 1e3;
  }

  // THD at 4 Vpp differential and the 0.6 % HD swing ceiling.
  auto thd_at = [&](double vp) {
    ckt::Netlist nl;
    dev::VSource *vsp, *vsn;
    auto drv = build(nl, vsp, vsn);
    vsp->set_waveform(dev::Waveform::sine(0.0, vp, 1e3));
    vsn->set_waveform(dev::Waveform::sine(0.0, -vp, 1e3));
    return rig_thd(nl, drv.outp, drv.outn, 1e3, 1e-6);
  };
  ds.thd_full_swing = thd_at(1.0);
  for (double vp = 0.8; vp <= vsup / 2.0 + 0.2; vp += 0.05) {
    const double thd = thd_at(vp);
    if (thd < 0.0 || thd > 0.006) break;
    ds.swing_06_v = vp;
  }

  // Slew rate.
  {
    ckt::Netlist nl;
    dev::VSource *vsp, *vsn;
    auto drv = build(nl, vsp, vsn);
    vsp->set_waveform(dev::Waveform::pulse(-0.5, 0.5, 10e-6, 1e-9, 1e-9,
                                           40e-6, 100e-6));
    vsn->set_waveform(dev::Waveform::pulse(0.5, -0.5, 10e-6, 1e-9, 1e-9,
                                           40e-6, 100e-6));
    an::TranOptions t;
    t.t_stop = 40e-6;
    t.dt = 20e-9;
    const auto tr = an::run_transient(nl, t);
    if (tr.ok) {
      const auto w = tr.diff_wave(drv.outp, drv.outn);
      double sr = 0.0;
      for (std::size_t i = 1; i < w.size(); ++i)
        sr = std::max(sr, std::abs(w[i] - w[i - 1]) /
                              (tr.time[i] - tr.time[i - 1]));
      ds.slew_v_per_us = sr * 1e-6;
    }
  }

  // Signal-dependent gain (the paper's noted ~5 % drawback): closed-loop
  // gain while the virtual grounds ride at different common modes.
  {
    double g_min = 1e9, g_max = 0.0;
    for (double vcm : {-0.8, 0.0, 0.8}) {
      ckt::Netlist nl;
      dev::VSource *vsp, *vsn;
      auto drv = build(nl, vsp, vsn);
      vsp->set_waveform(dev::Waveform::dc(vcm).with_ac(0.5));
      vsn->set_waveform(dev::Waveform::dc(vcm).with_ac(-0.5));
      if (!an::solve_op(nl).converged) continue;
      const auto ac = an::run_ac(nl, {1e3});
      const double g = std::abs(ac.vdiff(0, drv.outp, drv.outn));
      g_min = std::min(g_min, g);
      g_max = std::max(g_max, g);
    }
    if (g_max > 0.0) ds.gain_var_pct = (g_max - g_min) / g_max * 100.0;
  }

  ds.valid = true;
  return ds;
}

}  // namespace msim::core
