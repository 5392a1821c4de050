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
#include "core/characterize.h"
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

// The rig builders live in core/characterize.h with the measurements
// that use them.
using core::build_drv_into;
using core::build_mic_into;
using core::DrvParts;
using core::MicParts;

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

// Microphone-amplifier rig: the parts with the netlist they live in.
struct MicRig : MicParts {
  ckt::Netlist nl;
};

inline std::unique_ptr<MicRig> make_mic_rig(
    const core::MicAmpDesign& d = {},
    const proc::ProcessModel& pm = proc::ProcessModel::cmos12()) {
  auto r = std::make_unique<MicRig>();
  static_cast<MicParts&>(*r) = build_mic_into(r->nl, d, pm);
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
struct ChipRig : ChipParts {
  ckt::Netlist nl;
};

inline std::unique_ptr<ChipRig> make_chip_rig(
    const core::ChipDesign& d = {},
    const proc::ProcessModel& pm = proc::ProcessModel::cmos12()) {
  auto r = std::make_unique<ChipRig>();
  static_cast<ChipParts&>(*r) = build_chip_into(r->nl, d, pm);
  return r;
}

// Driver rig in the Fig. 9 inverting connection with a 50 ohm load.
struct DrvRig : DrvParts {
  ckt::Netlist nl;
};

inline std::unique_ptr<DrvRig> make_drv_rig(
    double vsup = 2.6, const core::DriverDesign& d = {},
    double c_load = 0.0,
    const proc::ProcessModel& pm = proc::ProcessModel::cmos12()) {
  auto r = std::make_unique<DrvRig>();
  static_cast<DrvParts&>(*r) = build_drv_into(r->nl, vsup, d, c_load, pm);
  return r;
}

}  // namespace bench
