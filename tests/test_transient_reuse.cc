// Transient factorization tests: full-Newton bit identity on the
// class-AB buffer (waveform and PSS THD against recorded goldens, the
// predictor's Newton-iteration saving on the PSS run), the
// linear fast path's one-factorization contract, and the determinism of
// run_transient_sweep across thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/pss.h"
#include "analysis/transient.h"
#include "bench_util.h"
#include "circuit/netlist.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "golden_util.h"
#include "serve/deck.h"

namespace {

using namespace msim;

// Buffer rig under the Table 2 full-swing drive (0.3 V per side, 1 kHz).
std::unique_ptr<bench::DrvRig> driven_buffer() {
  auto rig = bench::make_drv_rig();
  rig->vsp->set_waveform(dev::Waveform::sine(0.0, 0.3, 1e3));
  rig->vsn->set_waveform(dev::Waveform::sine(0.0, -0.3, 1e3));
  return rig;
}

// Every Newton iteration of a nonlinear run factors: no solve rides a
// held factorization, and the only extra factorizations are the
// numerical-health monitor's forced refactors.
void expect_full_newton(const an::TranTelemetry& tel) {
  EXPECT_FALSE(tel.linear_fast_path_used);
  EXPECT_EQ(tel.reuse_count, 0);
  const long forced =
      tel.by_reason[static_cast<int>(an::FactorReason::kIterativeRefinement)];
  EXPECT_EQ(tel.factor_count, tel.newton_iterations + forced);
}

// Every nonlinear step starts Newton from the second-order predictor
// (StepHistory in transient.cc).  The *_predictor goldens hold its bits;
// the goldens recorded before it, when each step started from the last
// accepted point, stay as tolerance references: both runs stop inside
// the same Newton tolerance, so they agree to well under 1e-9 of the
// reference's swing.
TEST(TransientReuse, ClassAbBufferWaveformMatchesFullNewtonGolden) {
  auto rig = driven_buffer();
  an::TranOptions t;
  t.t_stop = 1e-3;
  t.dt = 2e-6;
  const auto r = an::run_transient(rig->nl, t);
  ASSERT_TRUE(r.ok) << r.diag.message();
  const auto w = r.diff_wave(rig->drv.outp, rig->drv.outn);
  golden::expect("transient/buffer_hd_diff_wave_predictor.txt",
                 golden::hex_rows(w));
  const auto ref = golden::numbers(
      golden::read("transient/buffer_hd_diff_wave.txt"));
  golden::expect_near(ref, w, 1e-9 * golden::span(ref));
  expect_full_newton(r.telemetry);
  // The JSON view still carries both counters.
  const auto js = serve::tran_stats_json(r.telemetry).dump();
  EXPECT_NE(js.find("\"factor_count\""), std::string::npos);
  EXPECT_NE(js.find("\"reuse_count\""), std::string::npos);
}

// Shooting PSS rides the held LU of each accepted step for its Phi
// columns; with full Newton that is always the step's last iteration's
// factorization.  THD and the periodic boundary state match the golden.
// This is perfbench's tone-thd op (0.3 V per side, dt 1 us).  The
// buffer is periodic after the quarter-period pre-roll, so the first
// shot (which carries no Phi) is the result: 1250 accepted steps.  The
// goldens recorded when the run integrated a one-period settle prefix
// (2000 steps), or a two-period prefix plus a Phi shot (3000 steps),
// stay as tolerance references: every one of these results closes the
// same orbit to within the Newton tolerance.
TEST(TransientReuse, BufferPssThdMatchesFullNewtonGolden) {
  auto rig = driven_buffer();
  an::PssOptions o;
  o.tran.dt = 1e-6;
  const auto r = an::run_pss_shooting(rig->nl, o);
  ASSERT_TRUE(r.ok) << r.diag.message();
  const double thd =
      r.harmonics(r.diff_wave(rig->drv.outp, rig->drv.outn)).thd;
  char buf[64];
  std::snprintf(buf, sizeof buf, "thd: %a\nx0:\n", thd);
  golden::expect("transient/buffer_pss_thd_preroll.txt",
                 buf + golden::hex_rows(r.x0));
  for (const char* name : {"transient/buffer_pss_thd.txt",
                           "transient/buffer_pss_thd_predictor.txt",
                           "transient/buffer_pss_thd_first_shot.txt"}) {
    SCOPED_TRACE(name);
    const auto ref = golden::numbers(golden::read(name));
    ASSERT_EQ(ref.size(), 1 + r.x0.size());
    EXPECT_NEAR(thd, ref[0], 1e-9 * ref[0]);
    const std::vector<double> ref_x0(ref.begin() + 1, ref.end());
    golden::expect_near(ref_x0, r.x0, 1e-9 * golden::span(ref_x0));
  }
  expect_full_newton(r.telemetry.tran);
  EXPECT_EQ(r.telemetry.tran.accepted_steps, 1250);
  EXPECT_LE(r.telemetry.tran.newton_iterations, 1672);
}

// A purely linear circuit at constant dt needs exactly one numeric
// factorization for the whole run; every step after the first is an
// RHS restamp plus a back-substitution.
TEST(TransientReuse, LinearFastPathFactorsExactlyOnce) {
  auto build = [](ckt::Netlist& nl) {
    const auto in = nl.node("in");
    const auto out = nl.node("out");
    nl.add<dev::VSource>("V1", in, ckt::kGround,
                         dev::Waveform::sine(0.0, 1.0, 1e3));
    nl.add<dev::Resistor>("R1", in, out, 1e3);
    nl.add<dev::Capacitor>("C1", out, ckt::kGround, 100e-9);
    return out;
  };

  ckt::Netlist nl;
  const auto out = build(nl);
  an::TranOptions t;
  t.t_stop = 2e-3;
  t.dt = 1e-6;
  const auto r = an::run_transient(nl, t);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.telemetry.linear_fast_path_used);
  // One factorization for the transient loop (the initial OP solve
  // keeps its own counter inside OpResult, not here).
  EXPECT_EQ(r.telemetry.factor_count, 1);
  EXPECT_EQ(r.telemetry.reuse_count, r.telemetry.accepted_steps - 1);

  // The fast path must agree with the general Newton path exactly to
  // solver tolerance on the same circuit.
  ckt::Netlist nl2;
  const auto out2 = build(nl2);
  an::TranOptions t2 = t;
  t2.linear_fast_path = false;
  const auto r2 = an::run_transient(nl2, t2);
  ASSERT_TRUE(r2.ok);
  EXPECT_FALSE(r2.telemetry.linear_fast_path_used);
  const auto w = r.node_wave(out);
  const auto w2 = r2.node_wave(out2);
  ASSERT_EQ(w.size(), w2.size());
  for (std::size_t i = 0; i < w.size(); ++i)
    EXPECT_NEAR(w[i], w2[i], 1e-9) << "t = " << r.time[i];
}

// Sweep determinism contract: case i depends only on i, so the batched
// executor must return bit-identical waveforms at any thread count and
// chunk size.
TEST(TransientReuse, SweepBitIdenticalAcrossThreadCounts) {
  constexpr std::size_t kCases = 6;
  auto configure = [](std::size_t i, ckt::Netlist& nl,
                      an::TranOptions& t) {
    const auto in = nl.node("in");
    const auto out = nl.node("out");
    nl.add<dev::VSource>(
        "V1", in, ckt::kGround,
        dev::Waveform::sine(0.0, 0.25 * static_cast<double>(i + 1), 1e3));
    nl.add<dev::Resistor>("R1", in, out,
                          1e3 * static_cast<double>(i + 1));
    nl.add<dev::Capacitor>("C1", out, ckt::kGround, 100e-9);
    t.t_stop = 1e-3;
    t.dt = 2e-6;
  };

  an::TranSweepOptions serial;
  serial.threads = 1;
  const auto base = an::run_transient_sweep(kCases, configure, serial);
  ASSERT_EQ(base.size(), kCases);
  for (const auto& r : base) ASSERT_TRUE(r.ok);

  for (int threads : {2, 8}) {
    an::TranSweepOptions par;
    par.threads = threads;
    par.chunk = 1;  // force per-case scheduling across workers
    const auto got = an::run_transient_sweep(kCases, configure, par);
    ASSERT_EQ(got.size(), kCases);
    for (std::size_t i = 0; i < kCases; ++i) {
      ASSERT_TRUE(got[i].ok) << "threads=" << threads << " case " << i;
      ASSERT_EQ(got[i].time.size(), base[i].time.size());
      ASSERT_EQ(got[i].x.size(), base[i].x.size());
      for (std::size_t k = 0; k < base[i].x.size(); ++k)
        for (std::size_t u = 0; u < base[i].x[k].size(); ++u)
          EXPECT_EQ(got[i].x[k][u], base[i].x[k][u])
              << "threads=" << threads << " case " << i << " step " << k;
    }
  }
}

}  // namespace
