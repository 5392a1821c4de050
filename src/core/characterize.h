// One-call characterization of the paper's amplifiers: builds a fresh
// test bench around the block, runs OP / AC / noise / transient /
// Monte-Carlo and returns the datasheet numbers (the rows of Tables 1
// and 2).  Used by examples/datasheet.cpp and handy for regression
// tracking of design changes.
#pragma once

#include <map>
#include <string>

#include "core/class_ab_driver.h"
#include "core/mic_amp.h"
#include "process/process.h"

namespace msim::core {

struct MicAmpDatasheet {
  bool valid = false;
  double gain_db = 0.0;          // at the selected code, 1 kHz
  double gain_error_db = 0.0;    // vs the ideal code value
  double bw_3db_hz = 0.0;        // closed-loop bandwidth
  double noise_300_nv = 0.0;     // input-referred, nV/rtHz
  double noise_1k_nv = 0.0;
  double noise_avg_nv = 0.0;     // 0.3 - 3.4 kHz average
  double snr_psoph_db = 0.0;     // at 0.6 Vrms output
  double thd_db = 0.0;           // at 0.2 Vp output, 1 kHz
  double iq_ma = 0.0;
  double offset_sigma_mv = 0.0;  // input-referred, from mismatch MC
  // Monte-Carlo failure census: SolveDiag status name -> sample count
  // (empty when every mismatch sample solved).
  std::map<std::string, int> mc_failure_causes;
};

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

DriverDatasheet characterize_driver(const DriverDesign& d,
                                    const proc::ProcessModel& pm,
                                    double vsup = 2.6);

}  // namespace msim::core
