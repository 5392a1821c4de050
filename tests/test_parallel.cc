// Thread-pool and parallel-executor tests: the deterministic
// parallel_for contract, exception propagation, and bit-identical
// Monte-Carlo / AC results at every thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "analysis/ac.h"
#include "analysis/montecarlo.h"
#include "analysis/noise.h"
#include "analysis/op.h"
#include "bench_util.h"
#include "core/parallel.h"
#include "devices/diode.h"
#include "numeric/rng.h"
#include "process/process.h"

namespace {

using namespace msim;

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  core::parallel_for(4, n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, ResultsIdenticalAtEveryThreadCount) {
  // Each index writes only its own slot, so any schedule must produce
  // the same bits.
  constexpr std::size_t n = 257;
  auto run = [](int threads) {
    std::vector<double> out(n);
    core::parallel_for(threads, n, [&](std::size_t i) {
      out[i] = std::sin(0.1 * static_cast<double>(i)) /
               (1.0 + static_cast<double>(i));
    });
    return out;
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
  EXPECT_EQ(serial, run(0));  // auto
}

TEST(ParallelFor, EmptyAndSingleRangesWork) {
  int calls = 0;
  core::parallel_for(8, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  core::parallel_for(8, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, FirstExceptionPropagatesToCaller) {
  EXPECT_THROW(
      core::parallel_for(4, 100,
                         [](std::size_t i) {
                           if (i == 37)
                             throw std::runtime_error("index 37 failed");
                         }),
      std::runtime_error);
  // The pool must stay usable after a throwing job.
  std::atomic<int> ok{0};
  core::parallel_for(4, 10, [&](std::size_t) {
    ok.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ok.load(), 10);
}

// ---- Monte-Carlo determinism ----------------------------------------

an::McStats mic_gain_mc(int samples, int threads) {
  const auto pm = proc::ProcessModel::cmos12();
  // Every sample has the nominal rig's topology, so its output node ids.
  const auto nominal = bench::make_mic_rig();

  num::Rng rng(77);
  an::McOptions mo;
  mo.threads = threads;
  return an::monte_carlo_shared(
      samples, rng,
      [&](num::Rng& srng, ckt::Netlist& nl) {
        auto parts = bench::build_mic_into(nl);
        bench::perturb_mic_strings(parts.mic, pm, srng);
        parts.mic.set_gain_code(5);
      },
      [&](ckt::Netlist& nl) {
        an::OpOptions oo;
        oo.solver = an::SolverKind::kSparse;
        const auto op = an::solve_op(nl, oo);
        if (!op.converged) return an::McTrial::failed(op.diag);
        an::AcOptions ao;
        ao.solver = an::SolverKind::kSparse;
        const auto ac = an::run_ac(nl, {1e3}, ao);
        return an::McTrial::of(an::to_db(
            std::abs(ac.vdiff(0, nominal->mic.outp, nominal->mic.outn))));
      },
      mo);
}

TEST(MonteCarloParallel, StatisticsBitIdenticalAcrossThreadCounts) {
  const auto s1 = mic_gain_mc(16, 1);
  const auto s2 = mic_gain_mc(16, 2);
  const auto s8 = mic_gain_mc(16, 8);
  ASSERT_EQ(s1.samples.size(), 16u);
  EXPECT_EQ(s1.failures, 0);
  // Bitwise, not approximately: the seeds are pre-derived and every
  // sample owns its result slot.
  EXPECT_EQ(s1.samples, s2.samples);
  EXPECT_EQ(s1.samples, s8.samples);
}

TEST(MonteCarloParallel, FailureDiagsSortedAndOrderIndependent) {
  // A trial that fails deterministically per-sample: the parallel run
  // must report the same failures, sorted by sample index.
  auto run = [](int threads) {
    num::Rng rng(5);
    an::McOptions mo;
    mo.threads = threads;
    return an::monte_carlo_shared(
        64, rng,
        // The sample's draw rides in its netlist as a source value.
        [](num::Rng& srng, ckt::Netlist& nl) {
          nl.add<dev::VSource>("V", nl.node("a"), ckt::kGround,
                               srng.uniform());
        },
        [](ckt::Netlist& nl) {
          const double u =
              nl.find_as<dev::VSource>("V")->waveform().dc_value();
          if (u < 0.3) {
            an::SolveDiag diag;
            diag.status = an::SolveStatus::kNonConvergence;
            return an::McTrial::failed(diag);
          }
          return an::McTrial::of(u);
        },
        mo);
  };
  const auto serial = run(1);
  const auto parallel = run(8);
  ASSERT_GT(serial.failures, 0);
  EXPECT_EQ(serial.samples, parallel.samples);
  ASSERT_EQ(serial.failure_diags.size(), parallel.failure_diags.size());
  for (std::size_t i = 0; i < serial.failure_diags.size(); ++i) {
    EXPECT_EQ(serial.failure_diags[i].sample,
              parallel.failure_diags[i].sample);
    if (i > 0) {
      EXPECT_LT(parallel.failure_diags[i - 1].sample,
                parallel.failure_diags[i].sample);
    }
  }
}

// A diode divider whose topology comes from the sample's own stream: a
// rewired sample returns R2 to node a instead of node b, keeping the
// node, device and unknown counts.
void build_rewirable_divider(num::Rng& r, ckt::Netlist& nl) {
  const bool rewired = r.uniform() < 0.3;
  const auto a = nl.node("a");
  const auto b = nl.node("b");
  nl.add<dev::VSource>("V1", a, ckt::kGround, 1.0);
  nl.add<dev::Resistor>("R1", a, b, 1e3 * (1.0 + 0.05 * r.normal()));
  nl.add<dev::Resistor>("R2", rewired ? a : b, ckt::kGround, 5e3);
  nl.add<dev::Diode>("D1", b, ckt::kGround, dev::DiodeParams{});
}

an::McTrial divider_output(ckt::Netlist& nl) {
  const auto op = an::solve_op(nl);
  if (!op.converged) return an::McTrial::failed(op.diag);
  return an::McTrial::of(op.v(nl.find_node("b")));
}

// A sample whose topology differs from sample 0's must not adopt its
// cache, and must measure exactly what a standalone solve measures.
TEST(MonteCarloParallel, TopologyMismatchSampleRunsStandalone) {
  constexpr int kSamples = 12;
  std::vector<bool> adopted;  // serial run: samples arrive in order
  num::Rng rng(3);
  const auto st = an::monte_carlo_shared(
      kSamples, rng, build_rewirable_divider, [&](ckt::Netlist& nl) {
        adopted.push_back(nl.solver_cache().skeleton != nullptr);
        return divider_output(nl);
      });
  ASSERT_EQ(st.failures, 0);

  // Replay each sample standalone from its stream, the i-th
  // derive_seed() draw of the root Rng.
  num::Rng root(3);
  std::uint64_t fp0 = 0;
  int mismatched = 0;
  for (int i = 0; i < kSamples; ++i) {
    num::Rng r(root.derive_seed());
    ckt::Netlist nl;
    build_rewirable_divider(r, nl);
    const std::uint64_t fp = nl.topology_fingerprint();
    if (i == 0) fp0 = fp;
    EXPECT_EQ(adopted[i], i > 0 && fp == fp0) << "sample " << i;
    if (fp == fp0) continue;
    ++mismatched;
    EXPECT_EQ(st.samples[i], divider_output(nl).value) << "sample " << i;
  }
  ASSERT_GT(mismatched, 0);
  ASSERT_LT(mismatched, kSamples - 1);
}

// ---- parallel frequency grids ---------------------------------------

TEST(AcParallel, GridBitIdenticalToSerial) {
  auto rig = bench::make_mic_rig();
  const auto op = an::solve_op(rig->nl);
  ASSERT_TRUE(op.converged);
  const auto freqs = an::log_frequencies(10.0, 10e6, 5);

  an::AcOptions serial;
  serial.threads = 1;
  an::AcOptions parallel;
  parallel.threads = 8;
  const auto rs = an::run_ac(rig->nl, freqs, serial);
  const auto rp = an::run_ac(rig->nl, freqs, parallel);
  ASSERT_EQ(rs.solutions.size(), freqs.size());
  ASSERT_EQ(rp.solutions.size(), freqs.size());
  for (std::size_t k = 0; k < freqs.size(); ++k)
    EXPECT_EQ(rs.solutions[k], rp.solutions[k]) << "f = " << freqs[k];
}

TEST(NoiseParallel, SpectrumBitIdenticalToSerial) {
  auto rig = bench::make_mic_rig();
  const auto op = an::solve_op(rig->nl);
  ASSERT_TRUE(op.converged);
  const auto freqs = an::log_frequencies(10.0, 100e3, 4);

  an::NoiseOptions ns;
  ns.out_p = rig->mic.outp;
  ns.out_n = rig->mic.outn;
  ns.input_source = "Vinp";
  ns.threads = 1;
  an::NoiseOptions np = ns;
  np.threads = 8;
  const auto rs = an::run_noise(rig->nl, freqs, ns);
  const auto rp = an::run_noise(rig->nl, freqs, np);
  ASSERT_EQ(rs.points.size(), rp.points.size());
  for (std::size_t k = 0; k < rs.points.size(); ++k) {
    EXPECT_EQ(rs.points[k].s_out, rp.points[k].s_out);
    EXPECT_EQ(rs.points[k].s_in, rp.points[k].s_in);
    EXPECT_EQ(rs.points[k].gain_mag, rp.points[k].gain_mag);
  }
}

}  // namespace
