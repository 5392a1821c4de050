// How each row of the paper's Tables 1 and 2 and of Fig. 11 is
// measured: the standard test rigs around both amplifiers and one
// function per measurement (noise and S/N, one PSS tone period, the
// output-swing sweep, the slew step).  The paper benches and
// examples/datasheet.cpp call these and only print; the one-call
// characterize_* functions gather them into datasheet structs.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "circuit/netlist.h"
#include "core/class_ab_driver.h"
#include "core/mic_amp.h"
#include "devices/sources.h"
#include "process/process.h"
#include "signal/meter.h"

namespace msim::core {

// Microphone-amplifier rig parts: +-1.3 V rails and differential input
// sources "Vinp"/"Vinn" (AC drive +-0.5), as device handles into a
// caller-owned netlist, so drivers that hand out the netlist themselves
// (the sample loop behind monte_carlo_shared and run_transient_sweep,
// and run_transient_ensemble) can reuse the builder.
struct MicParts {
  dev::VSource* vdd_src = nullptr;
  dev::VSource* vss_src = nullptr;
  dev::VSource* vinp = nullptr;
  dev::VSource* vinn = nullptr;
  MicAmp mic;
};

MicParts build_mic_into(
    ckt::Netlist& nl, const MicAmpDesign& d = {},
    const proc::ProcessModel& pm = proc::ProcessModel::cmos12());

// Driver rig in the Fig. 9 inverting connection (20 k / 20 k, sources
// "Vsp"/"Vsn") with a 50 ohm differential load, optionally || c_load.
struct DrvParts {
  dev::VSource* vdd_src = nullptr;
  dev::VSource* vss_src = nullptr;
  dev::VSource* vsp = nullptr;
  dev::VSource* vsn = nullptr;
  ClassAbDriver drv;
};

DrvParts build_drv_into(
    ckt::Netlist& nl, double vsup = 2.6, const DriverDesign& d = {},
    double c_load = 0.0,
    const proc::ProcessModel& pm = proc::ProcessModel::cmos12());

// Harmonics h1..h10 of v(outp) - v(outn) over one shooting-PSS period
// of a rig driven by a single tone at f0, with a step snapped from dt to
// a whole number of samples per period.  nullopt when shooting fails.
std::optional<sig::HarmonicAnalysis> rig_thd(ckt::Netlist& nl,
                                             ckt::NodeId outp,
                                             ckt::NodeId outn, double f0,
                                             double dt);

// Power into `r_load` ohms, in mW, of the tone period whose harmonics
// h1..h10 are `h`.
double tone_power_mw(const sig::HarmonicAnalysis& h, double r_load);

// Table 1's noise rows from one noise sweep (100 Hz - 20 kHz, 30 points
// per decade) of a microphone rig whose operating point is solved.
struct MicNoise {
  double n300_nv = 0.0;       // input-referred spot density nearest 300 Hz
  double n1k_nv = 0.0;        // ... nearest 1 kHz, nV/rtHz
  double navg_nv = 0.0;       // 0.3 - 3.4 kHz average
  double snr_psoph_db = 0.0;  // psophometric S/N at 0.6 Vrms output
};

MicNoise mic_noise(ckt::Netlist& nl, const MicAmp& mic);

// One PSS period of the rig's differential output under a 1 kHz tone of
// `a` volts per side on its input sources (left on them afterwards).
std::optional<sig::HarmonicAnalysis> mic_tone(ckt::Netlist& nl,
                                              const MicParts& p, double a);
std::optional<sig::HarmonicAnalysis> drv_tone(ckt::Netlist& nl,
                                              const DrvParts& p, double a);

// Table 2's output-swing sweep: drv_tone's THD on a fresh 50 ohm rig at
// each per-side amplitude 0.6 V + 0.05 V * k up to vsup/2 + 0.15 V,
// stopping at the first failed measurement.
struct SwingSweep {
  std::vector<double> vp;   // amplitudes measured, ascending
  std::vector<double> thd;  // THD at each
  // Largest measured amplitude whose THD is at most `limit`; 0 if none.
  double max_vp(double limit) const;
};

SwingSweep drv_swing_sweep(
    double vsup, const DriverDesign& d = {},
    const proc::ProcessModel& pm = proc::ProcessModel::cmos12());

// Largest |dv/dt| of the differential output, in V/us, over a +-0.5 V
// per-side input step at 20 us (20 ns steps to 60 us); 0 when the
// transient fails.
double drv_slew_v_per_us(ckt::Netlist& nl, const DrvParts& p);

struct MicAmpDatasheet {
  bool valid = false;
  double gain_db = 0.0;          // at the selected code, 1 kHz
  double gain_error_db = 0.0;    // vs the ideal code value
  double bw_3db_hz = 0.0;        // closed-loop bandwidth
  MicNoise noise;
  double thd_db = 0.0;           // at 0.2 Vp output, 1 kHz
  double iq_ma = 0.0;
  double offset_sigma_mv = 0.0;  // input-referred, from mismatch MC
  // Monte-Carlo failure census: SolveDiag status name -> sample count
  // (empty when every mismatch sample solved).
  std::map<std::string, int> mc_failure_causes;
};

// `valid` is false when the operating point or the tone fails.
MicAmpDatasheet characterize_mic_amp(const MicAmpDesign& d,
                                     const proc::ProcessModel& pm,
                                     int gain_code = 5,
                                     int mc_samples = 11,
                                     unsigned seed = 1995);

struct DriverDatasheet {
  bool valid = false;
  double iq_ma = 0.0;
  double iq_leg_ma = 0.0;        // one output branch quiescent
  double thd_full_swing = 0.0;   // 4 Vpp into 50 ohm
  double swing_06_v = 0.0;       // largest per-side swing with <=0.6% HD
  double slew_v_per_us = 0.0;
  double gain_var_pct = 0.0;     // signal-dependent gain over CM range
};

// `valid` is false when the operating point or the full-swing tone
// fails.
DriverDatasheet characterize_driver(const DriverDesign& d,
                                    const proc::ProcessModel& pm,
                                    double vsup = 2.6);

}  // namespace msim::core
