// Whole-front-end integration: bias cell, bandgap and microphone
// amplifier on shared rails in one netlist (the paper's Fig. 1 chip at
// transistor level), solved and analysed together.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/ac.h"
#include "analysis/noise.h"
#include "analysis/op.h"
#include "analysis/sweep.h"
#include "circuit/netlist.h"
#include "core/bandgap.h"
#include "core/bias.h"
#include "core/characterize.h"
#include "core/class_ab_driver.h"
#include "core/mic_amp.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "numeric/units.h"

namespace {

using namespace msim;

TEST(Integration, AllBlocksConvergeOnSharedRails) {
  ckt::Netlist nl;
  const auto nvdd = nl.node("vdd");
  const auto nvss = nl.node("vss");
  const auto inp = nl.node("inp");
  const auto inn = nl.node("inn");
  nl.add<dev::VSource>("Vdd", nvdd, ckt::kGround, 1.3);
  nl.add<dev::VSource>("Vss", nvss, ckt::kGround, -1.3);
  nl.add<dev::VSource>("Vinp", inp, ckt::kGround,
                       dev::Waveform::dc(0.0).with_ac(0.5));
  nl.add<dev::VSource>("Vinn", inn, ckt::kGround,
                       dev::Waveform::dc(0.0).with_ac(-0.5));
  const auto pm = proc::ProcessModel::cmos12();

  const auto bias = core::build_bias(nl, pm, core::BiasDesign{}, nvdd,
                                     nvss, "bias");
  const auto bg = core::build_bandgap(nl, pm, core::BandgapDesign{}, nvdd,
                                      nvss, ckt::kGround, "bg");
  auto mic = core::build_mic_amp(nl, pm, core::MicAmpDesign{}, nvdd, nvss,
                                 ckt::kGround, inp, inn, "mic");
  // Drive the buffer from the mic amp's outputs (Fig. 1 order).
  const auto drv = core::build_class_ab_driver(
      nl, pm, core::DriverDesign{}, nvdd, nvss, ckt::kGround, mic.outp,
      mic.outn, "drv");
  nl.add<dev::Resistor>("RL", drv.outp, drv.outn, 50.0);

  const auto op = an::solve_op(nl);
  ASSERT_TRUE(op.converged) << op.method;

  // Every block at its design point simultaneously.
  EXPECT_NEAR(-bias.i_probe->current(op.x), -20e-6, 4e-6);
  EXPECT_NEAR(op.v(bg.vref_p) - op.v(bg.vref_n), 1.2, 0.08);
  EXPECT_NEAR(op.v(mic.outp), 0.0, 0.05);
  EXPECT_NEAR(op.v(drv.outp), 0.0, 0.2);
}

TEST(Integration, ChainGainIsMicTimesBuffer) {
  // Mic amp at 16 dB into the (roughly unity into 50 ohm) buffer.
  ckt::Netlist nl;
  const auto nvdd = nl.node("vdd");
  const auto nvss = nl.node("vss");
  const auto inp = nl.node("inp");
  const auto inn = nl.node("inn");
  nl.add<dev::VSource>("Vdd", nvdd, ckt::kGround, 1.3);
  nl.add<dev::VSource>("Vss", nvss, ckt::kGround, -1.3);
  nl.add<dev::VSource>("Vinp", inp, ckt::kGround,
                       dev::Waveform::dc(0.0).with_ac(0.5e-3));
  nl.add<dev::VSource>("Vinn", inn, ckt::kGround,
                       dev::Waveform::dc(0.0).with_ac(-0.5e-3));
  const auto pm = proc::ProcessModel::cmos12();
  auto mic = core::build_mic_amp(nl, pm, core::MicAmpDesign{}, nvdd, nvss,
                                 ckt::kGround, inp, inn, "mic");
  mic.set_gain_code(1);  // 16 dB
  // Buffer as unity-gain inverting stage from the mic outputs.
  const auto fb_p = nl.node("fb_p");
  const auto fb_n = nl.node("fb_n");
  const auto drv = core::build_class_ab_driver(
      nl, pm, core::DriverDesign{}, nvdd, nvss, ckt::kGround, fb_p, fb_n,
      "drv");
  nl.add<dev::Resistor>("Ra1", mic.outp, fb_n, 20e3);
  nl.add<dev::Resistor>("Rf1", drv.outp, fb_n, 20e3);
  nl.add<dev::Resistor>("Ra2", mic.outn, fb_p, 20e3);
  nl.add<dev::Resistor>("Rf2", drv.outn, fb_p, 20e3);
  nl.add<dev::Resistor>("RL", drv.outp, drv.outn, 50.0);

  ASSERT_TRUE(an::solve_op(nl).converged);
  const auto ac = an::run_ac(nl, {1e3});
  const double chain =
      std::abs(ac.vdiff(0, drv.outp, drv.outn)) / 1e-3;
  EXPECT_NEAR(chain, std::pow(10.0, 16.0 / 20.0), 0.4);
}

TEST(Integration, SystemSurvivesTemperatureRange) {
  ckt::Netlist nl;
  const auto nvdd = nl.node("vdd");
  const auto nvss = nl.node("vss");
  const auto inp = nl.node("inp");
  const auto inn = nl.node("inn");
  nl.add<dev::VSource>("Vdd", nvdd, ckt::kGround, 1.3);
  nl.add<dev::VSource>("Vss", nvss, ckt::kGround, -1.3);
  nl.add<dev::VSource>("Vinp", inp, ckt::kGround, 0.0);
  nl.add<dev::VSource>("Vinn", inn, ckt::kGround, 0.0);
  const auto pm = proc::ProcessModel::cmos12();
  core::build_bias(nl, pm, core::BiasDesign{}, nvdd, nvss, "bias");
  const auto bg = core::build_bandgap(nl, pm, core::BandgapDesign{}, nvdd,
                                      nvss, ckt::kGround, "bg");
  auto mic = core::build_mic_amp(nl, pm, core::MicAmpDesign{}, nvdd, nvss,
                                 ckt::kGround, inp, inn, "mic");

  const auto sweep = an::temperature_sweep(
      nl,
      {num::celsius_to_kelvin(-20.0), num::celsius_to_kelvin(25.0),
       num::celsius_to_kelvin(85.0)},
      an::OpOptions{});
  for (const auto& pt : sweep) {
    ASSERT_TRUE(pt.op.converged) << "T=" << pt.value;
    EXPECT_NEAR(pt.op.v(mic.outp), 0.0, 0.08);
    EXPECT_NEAR(pt.op.v(bg.vref_p) - pt.op.v(bg.vref_n), 1.2, 0.1);
  }
}

TEST(Integration, CornersStillMeetKeySpecs) {
  for (const auto corner :
       {proc::Corner::kSS, proc::Corner::kFF, proc::Corner::kSF,
        proc::Corner::kFS}) {
    ckt::Netlist nl;
    auto mic =
        core::build_mic_into(nl, {}, proc::ProcessModel::cmos12(corner)).mic;
    mic.set_gain_code(5);
    ASSERT_TRUE(an::solve_op(nl).converged)
        << "corner " << static_cast<int>(corner);
    const auto ac = an::run_ac(nl, {1e3});
    const double db =
        an::to_db(std::abs(ac.vdiff(0, mic.outp, mic.outn)));
    // Gain is resistor-ratio defined: corners barely move it.
    EXPECT_NEAR(db, 40.0, 0.1) << "corner " << static_cast<int>(corner);
  }
}

}  // namespace
