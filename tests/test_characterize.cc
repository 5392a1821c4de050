// Characterization-API tests: the datasheet numbers must reproduce the
// paper's tables from a single call.
#include <gtest/gtest.h>

#include <utility>

#include "analysis/transient.h"
#include "core/characterize.h"

namespace {

using namespace msim;

TEST(Characterize, MicAmpDatasheetMatchesTable1) {
  const auto pm = proc::ProcessModel::cmos12();
  const auto ds = core::characterize_mic_amp({}, pm, 5, 5);
  ASSERT_TRUE(ds.valid);
  EXPECT_NEAR(ds.gain_db, 40.0, 0.05);
  EXPECT_LT(std::abs(ds.gain_error_db), 0.05);
  EXPECT_GT(ds.bw_3db_hz, 20e3);  // audio amp with wide loop bandwidth
  EXPECT_LT(ds.noise.n300_nv, 7.7);
  EXPECT_LT(ds.noise.n1k_nv, 6.6);
  EXPECT_LT(ds.noise.navg_nv, 5.9);
  EXPECT_GT(ds.noise.snr_psoph_db, 86.5);
  EXPECT_LT(ds.thd_db, -52.0);
  EXPECT_LT(ds.iq_ma, 2.6);
  // Offset: large common-centroid devices keep sigma well under a mV.
  EXPECT_GT(ds.offset_sigma_mv, 0.01);
  EXPECT_LT(ds.offset_sigma_mv, 1.0);
}

TEST(Characterize, MicAmpLowCodeHasLowerGain) {
  const auto pm = proc::ProcessModel::cmos12();
  const auto ds = core::characterize_mic_amp({}, pm, 0, 3);
  ASSERT_TRUE(ds.valid);
  EXPECT_NEAR(ds.gain_db, 10.0, 0.05);
  // Eq. (4): noisier input-referred at the low code.
  EXPECT_GT(ds.noise.navg_nv, 5.9);
}

TEST(Characterize, DriverDatasheetMatchesTable2) {
  const auto pm = proc::ProcessModel::cmos12();
  const auto ds = core::characterize_driver({}, pm, 2.6);
  ASSERT_TRUE(ds.valid);
  EXPECT_NEAR(ds.iq_ma, 3.25, 0.5);
  EXPECT_LT(ds.thd_full_swing, 0.006);
  EXPECT_GE(ds.swing_06_v, 1.0);
  EXPECT_GT(ds.slew_v_per_us, 2.5);
  // Signal-dependent gain stays in the paper's "~5 %" ballpark.
  EXPECT_LT(ds.gain_var_pct, 6.0);
}

// Table 2's one swing sweep at 2.6 V: 0.6 V to 1.45 V per side in
// 0.05 V steps, both HD limits read from it at the clipping wall.
TEST(Characterize, SwingSweepReadsBothLimitsFromOneList) {
  const auto sweep = core::drv_swing_sweep(2.6);
  ASSERT_EQ(sweep.vp.size(), 18u);
  EXPECT_DOUBLE_EQ(sweep.vp.front(), 0.6);
  EXPECT_NEAR(sweep.vp.back(), 1.45, 1e-12);
  EXPECT_NEAR(sweep.max_vp(0.006), 1.20, 1e-12);
  EXPECT_NEAR(sweep.max_vp(0.003), 1.20, 1e-12);
}

// Fig. 11's rig (3.0 V, 1.0 V per side, 50 ohm and 50 ohm || 100 nF):
// the PSS period's odd harmonics and THD agree with a settled transient
// whose capture is trimmed to whole periods.  The gap does not move
// with the settle depth; it is the two integrations' discretization
// (it falls about 3.5x per halving of dt) and largest on H9 under the
// capacitive load: 1.5e-5 relative, about 1e-4 dB.
TEST(Characterize, Fig11ToneMatchesWholePeriodSettle) {
  for (const auto& [c_load, tol] : {std::pair{0.0, 1e-6},
                                    std::pair{100e-9, 2e-5}}) {
    SCOPED_TRACE(c_load);
    ckt::Netlist nl;
    const auto p = core::build_drv_into(nl, 3.0, {}, c_load);
    const auto pss = core::drv_tone(nl, p, 1.0);
    ASSERT_TRUE(pss.has_value());

    an::TranOptions t;
    t.dt = 1e-6;
    t.record_after = 2e-3;
    t.t_stop = 5e-3;
    const auto tr = an::run_transient(nl, t);
    ASSERT_TRUE(tr.ok) << tr.diag.message();
    auto w = tr.diff_wave(p.drv.outp, p.drv.outn);
    ASSERT_GE(w.size(), 3000u);
    w.resize(3000);  // three whole periods, not the fence-post sample
    const auto settle = sig::measure_harmonics(w, t.dt, 1e3);

    for (const std::size_t k : {1u, 3u, 5u, 7u})  // H3, H5, H7, H9
      EXPECT_NEAR(pss->harmonic_amp[k], settle.harmonic_amp[k],
                  tol * settle.harmonic_amp[k])
          << "H" << k + 2;
    EXPECT_NEAR(pss->thd, settle.thd, tol * settle.thd);
  }
}

}  // namespace
