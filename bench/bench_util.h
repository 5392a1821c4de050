// Shared helpers for the reproduction benches: standard rigs for the
// paper's circuits and a paper-vs-measured table printer.
#pragma once

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "analysis/ac.h"
#include "analysis/noise.h"
#include "analysis/op.h"
#include "analysis/sweep.h"
#include "analysis/transient.h"
#include "circuit/netlist.h"
#include "core/bandgap.h"
#include "core/bias.h"
#include "core/chip.h"
#include "core/class_ab_driver.h"
#include "core/mic_amp.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "numeric/rng.h"
#include "numeric/units.h"
#include "signal/meter.h"

namespace bench {

using namespace msim;

inline void header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void row(const std::string& name, const std::string& paper,
                const std::string& measured, bool ok) {
  std::printf("  %-34s paper: %-18s measured: %-18s [%s]\n", name.c_str(),
              paper.c_str(), measured.c_str(), ok ? "ok" : "DIFF");
}

inline std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

// Microphone-amplifier rig parts: device handles into a caller-owned
// netlist, so drivers that hand out the netlist themselves (the sample
// loop behind monte_carlo_shared and run_transient_sweep, and
// run_transient_ensemble) can reuse the builder.
struct MicParts {
  dev::VSource* vdd_src = nullptr;
  dev::VSource* vss_src = nullptr;
  dev::VSource* vinp = nullptr;
  dev::VSource* vinn = nullptr;
  core::MicAmp mic;
};

inline MicParts build_mic_into(
    ckt::Netlist& nl, const core::MicAmpDesign& d = {},
    const proc::ProcessModel& pm = proc::ProcessModel::cmos12()) {
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
  r.mic =
      core::build_mic_amp(nl, pm, d, nvdd, nvss, ckt::kGround, inp, inn);
  return r;
}

// The Table-1 gain-accuracy (dAcl) perturbation: every unit of both
// resistor strings gets the process's matched-resistor mismatch, drawn
// from `rng`, p string first.
inline void perturb_mic_strings(core::MicAmp& mic,
                                const proc::ProcessModel& pm,
                                num::Rng& rng) {
  for (auto* seg : mic.string_segments_p)
    seg->apply_relative_error(pm.sample_resistor_mismatch(rng));
  for (auto* seg : mic.string_segments_n)
    seg->apply_relative_error(pm.sample_resistor_mismatch(rng));
}

// Microphone-amplifier rig: +-1.3 V rails, differential input sources.
struct MicRig {
  ckt::Netlist nl;
  dev::VSource* vdd_src = nullptr;
  dev::VSource* vss_src = nullptr;
  dev::VSource* vinp = nullptr;
  dev::VSource* vinn = nullptr;
  core::MicAmp mic;
};

inline std::unique_ptr<MicRig> make_mic_rig(
    const core::MicAmpDesign& d = {},
    const proc::ProcessModel& pm = proc::ProcessModel::cmos12()) {
  auto r = std::make_unique<MicRig>();
  MicParts parts = build_mic_into(r->nl, d, pm);
  r->vdd_src = parts.vdd_src;
  r->vss_src = parts.vss_src;
  r->vinp = parts.vinp;
  r->vinn = parts.vinn;
  r->mic = parts.mic;
  return r;
}

// Full-chip rig parts into a caller-owned netlist (externally driven
// microphone terminals, DC inputs -- set waveforms on Vinp/Vinn).
struct ChipParts {
  dev::VSource* vdd_src = nullptr;
  dev::VSource* vss_src = nullptr;
  dev::VSource* vinp = nullptr;
  dev::VSource* vinn = nullptr;
  core::Chip chip;
};

inline ChipParts build_chip_into(
    ckt::Netlist& nl, const core::ChipDesign& d = {},
    const proc::ProcessModel& pm = proc::ProcessModel::cmos12()) {
  ChipParts r;
  const auto nvdd = nl.node("vdd");
  const auto nvss = nl.node("vss");
  const auto inp = nl.node("inp");
  const auto inn = nl.node("inn");
  r.vdd_src = nl.add<dev::VSource>("Vdd", nvdd, ckt::kGround, 1.3);
  r.vss_src = nl.add<dev::VSource>("Vss", nvss, ckt::kGround, -1.3);
  r.vinp = nl.add<dev::VSource>("Vinp", inp, ckt::kGround, 0.0);
  r.vinn = nl.add<dev::VSource>("Vinn", inn, ckt::kGround, 0.0);
  r.chip =
      core::build_chip(nl, pm, d, nvdd, nvss, ckt::kGround, inp, inn);
  return r;
}

// Full-chip rig: the whole Figure 1 front end between +-1.3 V rails
// with externally driven microphone terminals (~170 MNA unknowns).
struct ChipRig {
  ckt::Netlist nl;
  dev::VSource* vdd_src = nullptr;
  dev::VSource* vss_src = nullptr;
  core::Chip chip;
};

inline std::unique_ptr<ChipRig> make_chip_rig(
    const core::ChipDesign& d = {},
    const proc::ProcessModel& pm = proc::ProcessModel::cmos12()) {
  auto r = std::make_unique<ChipRig>();
  ChipParts parts = build_chip_into(r->nl, d, pm);
  r->vdd_src = parts.vdd_src;
  r->vss_src = parts.vss_src;
  r->chip = parts.chip;
  return r;
}

// Driver rig in the Fig. 9 inverting connection with a 50 ohm load.
struct DrvParts {
  dev::VSource* vdd_src = nullptr;
  dev::VSource* vss_src = nullptr;
  dev::VSource* vsp = nullptr;
  dev::VSource* vsn = nullptr;
  core::ClassAbDriver drv;
};

inline DrvParts build_drv_into(
    ckt::Netlist& nl, double vsup = 2.6, const core::DriverDesign& d = {},
    double c_load = 0.0,
    const proc::ProcessModel& pm = proc::ProcessModel::cmos12()) {
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
  r.drv = core::build_class_ab_driver(nl, pm, d, nvdd, nvss, ckt::kGround,
                                      fb_p, fb_n);
  nl.add<dev::Resistor>("Ra1", src_p, fb_n, 20e3);
  nl.add<dev::Resistor>("Rf1", r.drv.outp, fb_n, 20e3);
  nl.add<dev::Resistor>("Ra2", src_n, fb_p, 20e3);
  nl.add<dev::Resistor>("Rf2", r.drv.outn, fb_p, 20e3);
  nl.add<dev::Resistor>("RL", r.drv.outp, r.drv.outn, 50.0);
  if (c_load > 0.0)
    nl.add<dev::Capacitor>("CL", r.drv.outp, r.drv.outn, c_load);
  return r;
}

struct DrvRig {
  ckt::Netlist nl;
  dev::VSource* vdd_src = nullptr;
  dev::VSource* vss_src = nullptr;
  dev::VSource* vsp = nullptr;
  dev::VSource* vsn = nullptr;
  core::ClassAbDriver drv;
};

inline std::unique_ptr<DrvRig> make_drv_rig(
    double vsup = 2.6, const core::DriverDesign& d = {},
    double c_load = 0.0,
    const proc::ProcessModel& pm = proc::ProcessModel::cmos12()) {
  auto r = std::make_unique<DrvRig>();
  DrvParts parts = build_drv_into(r->nl, vsup, d, c_load, pm);
  r->vdd_src = parts.vdd_src;
  r->vss_src = parts.vss_src;
  r->vsp = parts.vsp;
  r->vsn = parts.vsn;
  r->drv = parts.drv;
  return r;
}

// THD of the driver rig at the given source amplitude (per side).
inline double drv_thd(DrvRig& r, double vp, double f0 = 1e3) {
  r.vsp->set_waveform(dev::Waveform::sine(0.0, vp, f0));
  r.vsn->set_waveform(dev::Waveform::sine(0.0, -vp, f0));
  an::TranOptions t;
  t.t_stop = 4e-3;
  t.dt = 1e-6;
  t.record_after = 1e-3;
  const auto res = an::run_transient(r.nl, t);
  if (!res.ok) return -1.0;
  const auto w = res.diff_wave(r.drv.outp, r.drv.outn);
  return sig::measure_harmonics(w, t.dt, f0).thd;
}

}  // namespace bench
