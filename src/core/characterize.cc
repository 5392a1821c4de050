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
#include "numeric/units.h"
#include "signal/psophometric.h"

namespace msim::core {
namespace {

constexpr double kToneHz = 1e3;

void set_tone(dev::VSource* p, dev::VSource* n, double a) {
  p->set_waveform(dev::Waveform::sine(0.0, a, kToneHz));
  n->set_waveform(dev::Waveform::sine(0.0, -a, kToneHz));
}

}  // namespace

MicParts build_mic_into(ckt::Netlist& nl, const MicAmpDesign& d,
                        const proc::ProcessModel& pm) {
  MicParts r;
  const auto nvdd = nl.node("vdd");
  const auto nvss = nl.node("vss");
  const auto inp = nl.node("inp");
  const auto inn = nl.node("inn");
  r.vdd_src = nl.add<dev::VSource>("Vdd", nvdd, ckt::kGround, 1.3);
  r.vss_src = nl.add<dev::VSource>("Vss", nvss, ckt::kGround, -1.3);
  r.vinp = nl.add<dev::VSource>("Vinp", inp, ckt::kGround,
                                dev::Waveform::dc(0.0).with_ac(0.5));
  r.vinn = nl.add<dev::VSource>("Vinn", inn, ckt::kGround,
                                dev::Waveform::dc(0.0).with_ac(-0.5));
  r.mic = build_mic_amp(nl, pm, d, nvdd, nvss, ckt::kGround, inp, inn);
  return r;
}

DrvParts build_drv_into(ckt::Netlist& nl, double vsup,
                        const DriverDesign& d, double c_load,
                        const proc::ProcessModel& pm) {
  DrvParts r;
  const auto nvdd = nl.node("vdd");
  const auto nvss = nl.node("vss");
  const auto src_p = nl.node("src_p");
  const auto src_n = nl.node("src_n");
  const auto fb_p = nl.node("fb_p");
  const auto fb_n = nl.node("fb_n");
  r.vdd_src = nl.add<dev::VSource>("Vdd", nvdd, ckt::kGround, vsup / 2.0);
  r.vss_src =
      nl.add<dev::VSource>("Vss", nvss, ckt::kGround, -vsup / 2.0);
  r.vsp = nl.add<dev::VSource>("Vsp", src_p, ckt::kGround, 0.0);
  r.vsn = nl.add<dev::VSource>("Vsn", src_n, ckt::kGround, 0.0);
  r.drv = build_class_ab_driver(nl, pm, d, nvdd, nvss, ckt::kGround, fb_p,
                                fb_n);
  nl.add<dev::Resistor>("Ra1", src_p, fb_n, 20e3);
  nl.add<dev::Resistor>("Rf1", r.drv.outp, fb_n, 20e3);
  nl.add<dev::Resistor>("Ra2", src_n, fb_p, 20e3);
  nl.add<dev::Resistor>("Rf2", r.drv.outn, fb_p, 20e3);
  nl.add<dev::Resistor>("RL", r.drv.outp, r.drv.outn, 50.0);
  if (c_load > 0.0)
    nl.add<dev::Capacitor>("CL", r.drv.outp, r.drv.outn, c_load);
  return r;
}

std::optional<sig::HarmonicAnalysis> rig_thd(ckt::Netlist& nl,
                                             ckt::NodeId outp,
                                             ckt::NodeId outn, double f0,
                                             double dt) {
  an::PssOptions po;
  po.f0_hz = f0;
  po.tran.dt = dt;
  const auto r = an::run_pss_shooting(nl, po);
  if (!r.ok) return std::nullopt;
  return r.harmonics(r.diff_wave(outp, outn));
}

double tone_power_mw(const sig::HarmonicAnalysis& h, double r_load) {
  const double v2 =
      h.fundamental_amp * h.fundamental_amp * (1.0 + h.thd * h.thd) / 2.0;
  return v2 / r_load * 1e3;
}

MicNoise mic_noise(ckt::Netlist& nl, const MicAmp& mic) {
  an::NoiseOptions nopt;
  nopt.out_p = mic.outp;
  nopt.out_n = mic.outn;
  nopt.input_source = "Vinp";
  nopt.temp_k = num::celsius_to_kelvin(25.0);
  const auto res =
      an::run_noise(nl, an::log_frequencies(100.0, 20e3, 30), nopt);
  const auto& pts = res.points;

  auto spot_nv = [&](double f_target) {
    double best = 1e18, val = 0.0;
    for (const auto& p : pts) {
      const double e = std::abs(std::log(p.freq_hz / f_target));
      if (e < best) {
        best = e;
        val = std::sqrt(p.s_in) * 1e9;
      }
    }
    return val;
  };
  auto psd_out = [&](double f) {
    for (std::size_t i = 1; i < pts.size(); ++i) {
      if (pts[i].freq_hz >= f) {
        const double t = (f - pts[i - 1].freq_hz) /
                         (pts[i].freq_hz - pts[i - 1].freq_hz);
        return pts[i - 1].s_out + t * (pts[i].s_out - pts[i - 1].s_out);
      }
    }
    return pts.back().s_out;
  };
  MicNoise n;
  n.n300_nv = spot_nv(300.0);
  n.n1k_nv = spot_nv(1e3);
  n.navg_nv = res.input_referred_avg_density(300.0, 3400.0) * 1e9;
  n.snr_psoph_db = sig::weighted_snr_db(0.6, psd_out, 300.0, 3400.0);
  return n;
}

std::optional<sig::HarmonicAnalysis> mic_tone(ckt::Netlist& nl,
                                              const MicParts& p, double a) {
  set_tone(p.vinp, p.vinn, a);
  return rig_thd(nl, p.mic.outp, p.mic.outn, kToneHz, 2e-6);
}

std::optional<sig::HarmonicAnalysis> drv_tone(ckt::Netlist& nl,
                                              const DrvParts& p, double a) {
  set_tone(p.vsp, p.vsn, a);
  return rig_thd(nl, p.drv.outp, p.drv.outn, kToneHz, 1e-6);
}

double SwingSweep::max_vp(double limit) const {
  double best = 0.0;
  for (std::size_t k = 0; k < vp.size(); ++k)
    if (thd[k] <= limit) best = vp[k];
  return best;
}

SwingSweep drv_swing_sweep(double vsup, const DriverDesign& d,
                           const proc::ProcessModel& pm) {
  SwingSweep s;
  // Counted on an integer index so the top amplitude is not lost to the
  // rounding of a running float sum.
  const int n =
      static_cast<int>(std::floor((vsup / 2.0 + 0.15 - 0.6) / 0.05 + 1e-9));
  for (int k = 0; k <= n; ++k) {
    const double vp = 0.6 + 0.05 * k;
    ckt::Netlist nl;
    const auto p = build_drv_into(nl, vsup, d, 0.0, pm);
    const auto h = drv_tone(nl, p, vp);
    if (!h) break;
    s.vp.push_back(vp);
    s.thd.push_back(h->thd);
  }
  return s;
}

double drv_slew_v_per_us(ckt::Netlist& nl, const DrvParts& p) {
  p.vsp->set_waveform(
      dev::Waveform::pulse(-0.5, 0.5, 20e-6, 1e-9, 1e-9, 60e-6, 200e-6));
  p.vsn->set_waveform(
      dev::Waveform::pulse(0.5, -0.5, 20e-6, 1e-9, 1e-9, 60e-6, 200e-6));
  an::TranOptions t;
  t.t_stop = 60e-6;
  t.dt = 20e-9;
  const auto tr = an::run_transient(nl, t);
  if (!tr.ok) return 0.0;
  const auto w = tr.diff_wave(p.drv.outp, p.drv.outn);
  double sr = 0.0;
  for (std::size_t i = 1; i < w.size(); ++i)
    sr = std::max(sr, std::abs(w[i] - w[i - 1]) /
                          (tr.time[i] - tr.time[i - 1]));
  return sr * 1e-6;
}

MicAmpDatasheet characterize_mic_amp(const MicAmpDesign& d,
                                     const proc::ProcessModel& pm,
                                     int gain_code, int mc_samples,
                                     unsigned seed) {
  MicAmpDatasheet ds;
  ckt::Netlist nl;
  auto p = build_mic_into(nl, d, pm);
  p.mic.set_gain_code(gain_code);
  const auto op = an::solve_op(nl);
  if (!op.converged) return ds;
  ds.iq_ma = p.mic.supply_probe->current(op.x) * 1e3;

  // Gain and bandwidth.
  {
    const auto ac0 = an::run_ac(nl, {1e3});
    const double g = std::abs(ac0.vdiff(0, p.mic.outp, p.mic.outn));
    ds.gain_db = an::to_db(g);
    ds.gain_error_db = ds.gain_db - MicAmp::code_gain_db(gain_code);
    const auto freqs = an::log_frequencies(1e3, 100e6, 15);
    const auto ac = an::run_ac(nl, freqs);
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      if (std::abs(ac.vdiff(i, p.mic.outp, p.mic.outn)) <
          g / std::sqrt(2.0)) {
        ds.bw_3db_hz = freqs[i];
        break;
      }
    }
  }

  ds.noise = mic_noise(nl, p.mic);

  // Distortion at 0.2 Vp output.
  const double gain = std::pow(10.0, ds.gain_db / 20.0);
  const auto h = mic_tone(nl, p, 0.2 / gain / 2.0);
  if (!h) return ds;
  ds.thd_db = h->thd_db;

  // Input-referred offset from mismatch Monte Carlo.
  num::Rng rng(seed);
  const auto stats = an::monte_carlo_shared(
      mc_samples, rng,
      [&](num::Rng& srng, ckt::Netlist& snl) {
        auto sp = build_mic_into(snl, d, pm);
        for (const auto& dv : snl.devices()) {
          auto* m = dynamic_cast<dev::Mosfet*>(dv.get());
          if (!m) continue;
          const auto mm = pm.sample_mos_mismatch(
              srng, m->params().polarity == dev::MosPolarity::kNmos,
              m->width(), m->length());
          m->apply_mismatch(mm.dvth, mm.dbeta_rel);
        }
        sp.mic.set_gain_code(gain_code);
      },
      [&](ckt::Netlist& snl) {
        // Every sample has the nominal rig's topology, so its output
        // node ids are the same.
        const auto op2 = an::solve_op(snl);
        if (!op2.converged) return an::McTrial::failed(op2.diag);
        return an::McTrial::of(
            (op2.v(p.mic.outp) - op2.v(p.mic.outn)) / gain);
      });
  ds.offset_sigma_mv = stats.stddev() * 1e3;
  ds.mc_failure_causes = stats.failure_causes();

  ds.valid = true;
  return ds;
}

DriverDatasheet characterize_driver(const DriverDesign& d,
                                    const proc::ProcessModel& pm,
                                    double vsup) {
  DriverDatasheet ds;
  // Quiescent point.
  {
    ckt::Netlist nl;
    const auto p = build_drv_into(nl, vsup, d, 0.0, pm);
    const auto op = an::solve_op(nl);
    if (!op.converged) return ds;
    ds.iq_ma = p.drv.supply_probe->current(op.x) * 1e3;
    ds.iq_leg_ma = p.drv.out_probe_p->current(op.x) * 1e3;
  }

  // THD at 4 Vpp differential and the 0.6 % HD swing ceiling, both from
  // the swing sweep: its k = 8 amplitude is 0.6 + 0.05 * 8 == 1.0 V per
  // side exactly, on the rig a separate tone would build.  Only a sweep
  // that stopped short of it (a failed tone, or vsup < 1.7 V) needs the
  // separate tone.
  const SwingSweep sweep = drv_swing_sweep(vsup, d, pm);
  const auto full = std::find(sweep.vp.begin(), sweep.vp.end(), 1.0);
  if (full != sweep.vp.end()) {
    ds.thd_full_swing = sweep.thd[static_cast<std::size_t>(
        full - sweep.vp.begin())];
  } else {
    ckt::Netlist nl;
    const auto h = drv_tone(nl, build_drv_into(nl, vsup, d, 0.0, pm), 1.0);
    if (!h) return ds;
    ds.thd_full_swing = h->thd;
  }
  ds.swing_06_v = sweep.max_vp(0.006);

  {
    ckt::Netlist nl;
    ds.slew_v_per_us =
        drv_slew_v_per_us(nl, build_drv_into(nl, vsup, d, 0.0, pm));
  }

  // Signal-dependent gain (the paper's noted ~5 % drawback): closed-loop
  // gain while the virtual grounds ride at different common modes.
  {
    double g_min = 1e9, g_max = 0.0;
    for (double vcm : {-0.8, 0.0, 0.8}) {
      ckt::Netlist nl;
      const auto p = build_drv_into(nl, vsup, d, 0.0, pm);
      p.vsp->set_waveform(dev::Waveform::dc(vcm).with_ac(0.5));
      p.vsn->set_waveform(dev::Waveform::dc(vcm).with_ac(-0.5));
      if (!an::solve_op(nl).converged) continue;
      const auto ac = an::run_ac(nl, {1e3});
      const double g = std::abs(ac.vdiff(0, p.drv.outp, p.drv.outn));
      g_min = std::min(g_min, g);
      g_max = std::max(g_max, g);
    }
    if (g_max > 0.0) ds.gain_var_pct = (g_max - g_min) / g_max * 100.0;
  }

  ds.valid = true;
  return ds;
}

}  // namespace msim::core
