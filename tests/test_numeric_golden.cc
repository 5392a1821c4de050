// Bit-identity goldens for the Newton and small-signal numeric paths:
// the mic-amp operating point at every gain code, the class-AB buffer's
// operating point under sine, pulse and PWL drive, one Table-1 gain-
// accuracy Monte-Carlo batch, and the mic-amp AC response.  Each golden
// holds C99 hex floats, so any change to the stamping, factorization or
// solve arithmetic shows up as a byte difference.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/ac.h"
#include "analysis/montecarlo.h"
#include "analysis/op.h"
#include "bench_util.h"
#include "core/mic_amp.h"
#include "devices/sources.h"
#include "golden_util.h"
#include "numeric/rng.h"
#include "process/process.h"

namespace {

using namespace msim;

// solve_op on a fresh mic-amp rig per gain code (no cache carried over
// from another code, so each vector depends on that code alone).
TEST(NumericGolden, MicAmpOpAtEveryGainCode) {
  std::string text;
  for (int k = 0; k < core::kMicGainCodes; ++k) {
    auto rig = bench::make_mic_rig();
    rig->mic.set_gain_code(k);
    const auto op = an::solve_op(rig->nl);
    ASSERT_TRUE(op.converged) << "code " << k;
    text += "code " + std::to_string(k) + ":\n" + golden::hex_rows(op.x);
  }
  golden::expect("numeric/mic_op_codes.txt", text);
}

// solve_op on the class-AB buffer whose inputs carry a sine, a pulse and
// a PWL waveform, each nonzero at t = 0: the operating point reads every
// source at t = 0, and these bits were recorded when it read
// Waveform::dc_value() instead.
TEST(NumericGolden, BufferOpUnderSinePulsePwlDrive) {
  struct Drive {
    const char* name;
    dev::Waveform p, n;
  };
  const Drive drives[] = {
      {"sine", dev::Waveform::sine(0.05, 0.3, 1e3),
       dev::Waveform::sine(-0.05, -0.3, 1e3)},
      {"pulse", dev::Waveform::pulse(0.1, -0.2, 0.0, 1e-6, 1e-6, 0.5e-3, 1e-3),
       dev::Waveform::pulse(-0.1, 0.2, 0.0, 1e-6, 1e-6, 0.5e-3, 1e-3)},
      {"pwl", dev::Waveform::pwl({0.0, 1e-3}, {-0.08, 0.3}),
       dev::Waveform::pwl({0.0, 1e-3}, {0.08, -0.3})},
  };
  std::string text;
  for (const Drive& d : drives) {
    auto rig = bench::make_drv_rig();
    rig->vsp->set_waveform(d.p);
    rig->vsn->set_waveform(d.n);
    const auto op = an::solve_op(rig->nl);
    ASSERT_TRUE(op.converged) << d.name;
    text += std::string(d.name) + ":\n" + golden::hex_rows(op.x);
  }
  golden::expect("numeric/buffer_op_sine_pulse_pwl.txt", text);
}

// One 20-sample batch of the Table-1 dAcl Monte-Carlo, as the table1-mc
// benchmark workload runs it: per sample, build the mic rig, perturb both
// resistor strings, solve the operating point and take the 1 kHz
// differential gain in dB; one thread.  Every sample after the first
// starts Newton from sample 0's operating point; the golden recorded
// when each sample started from zero stays as a tolerance reference
// (1e-9 of the span of its values; the seeded start moved them by at
// most 1e-13 dB on a 0.042 dB span).
TEST(NumericGolden, Table1McBatchSamples) {
  const auto pm = proc::ProcessModel::cmos12();
  constexpr int kCode = 3;
  ckt::NodeId outp{}, outn{};
  num::Rng rng(1);
  an::McOptions mo;
  mo.threads = 1;
  const an::McStats st = an::monte_carlo_shared(
      20, rng,
      [&](num::Rng& r, ckt::Netlist& nl) {
        auto parts = bench::build_mic_into(nl, {}, pm);
        bench::perturb_mic_strings(parts.mic, pm, r);
        parts.mic.set_gain_code(kCode);
        outp = parts.mic.outp;
        outn = parts.mic.outn;
      },
      [&](ckt::Netlist& nl) {
        const auto op = an::solve_op(nl);
        if (!op.converged) return an::McTrial::failed(op.diag);
        const auto ac = an::run_ac_diag(nl, {1e3});
        if (!ac.ok()) return an::McTrial::failed(ac.diag);
        return an::McTrial::of(
            an::to_db(std::abs(ac.vdiff(0, outp, outn))));
      },
      mo);
  ASSERT_EQ(st.failures, 0);
  ASSERT_EQ(st.samples.size(), 20u);
  golden::expect("numeric/table1_mc_samples_seeded.txt",
                 golden::hex_rows(st.samples));
  const auto ref =
      golden::numbers(golden::read("numeric/table1_mc_samples.txt"));
  golden::expect_near(ref, st.samples, 1e-9 * golden::span(ref));
}

// Every unknown of the mic-amp AC solution (real, imaginary) at five
// frequencies across the passband and the roll-off.
TEST(NumericGolden, MicAmpAcResponse) {
  auto rig = bench::make_mic_rig();
  rig->mic.set_gain_code(5);
  ASSERT_TRUE(an::solve_op(rig->nl).converged);
  const std::vector<double> freqs = {10.0, 1e2, 1e3, 1e4, 1e5};
  const auto ac = an::run_ac_diag(rig->nl, freqs);
  ASSERT_TRUE(ac.ok()) << ac.diag.message();
  std::string text;
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    std::vector<double> re_im;
    for (const auto& z : ac.solutions[i]) {
      re_im.push_back(z.real());
      re_im.push_back(z.imag());
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "f %a:\n", freqs[i]);
    text += buf + golden::hex_rows(re_im);
  }
  golden::expect("numeric/mic_ac_response.txt", text);
}

}  // namespace
