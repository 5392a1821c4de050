// Tests for the OP report renderer and the text writer every report
// prints its numbers through.
#include <gtest/gtest.h>

#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "analysis/op.h"
#include "analysis/op_report.h"
#include "circuit/netlist.h"
#include "devices/bjt.h"
#include "devices/mosfet.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "process/process.h"
#include "spicefmt/parser.h"
#include "spicefmt/writer.h"
#include "core/mic_amp.h"
#include "core/text_writer.h"
#include "numeric/units.h"
#include "golden_util.h"

namespace {

using namespace msim;

TEST(OpReport, ListsNodesDevicesAndRegions) {
  ckt::Netlist nl;
  const auto vdd = nl.node("vdd");
  const auto g = nl.node("g");
  const auto d = nl.node("d");
  const auto e = nl.node("e");
  const auto pm = proc::ProcessModel::cmos12();
  nl.add<dev::VSource>("Vdd", vdd, ckt::kGround, 3.0);
  nl.add<dev::VSource>("Vg", g, ckt::kGround, 1.0);
  nl.add<dev::Resistor>("RL", vdd, d, 10e3);
  nl.add<dev::Mosfet>("M1", d, g, ckt::kGround, ckt::kGround, pm.nmos(),
                      50e-6, 2e-6);
  nl.add<dev::Bjt>("Q1", ckt::kGround, ckt::kGround, e,
                   pm.vertical_pnp());
  nl.add<dev::ISource>("Ie", ckt::kGround, e, 10e-6);
  const auto op = an::solve_op(nl);
  ASSERT_TRUE(op.converged);
  const std::string rep = an::op_report(nl, op);
  EXPECT_NE(rep.find("node voltages:"), std::string::npos);
  EXPECT_NE(rep.find("M1"), std::string::npos);
  EXPECT_NE(rep.find("sat"), std::string::npos);
  EXPECT_NE(rep.find("Q1"), std::string::npos);
  EXPECT_NE(rep.find("Vdd"), std::string::npos);
  // Engineering notation shows up (uA-scale drain current).
  EXPECT_NE(rep.find("uA"), std::string::npos);
}

// --- op_report byte identity ----------------------------------------------
// Goldens were recorded from the ostringstream/snprintf renderer; the
// report must stay byte-identical (minus the wall-clock "solver time:"
// line).

std::string solved_report(const std::string& deck) {
  auto parsed = spice::parse_netlist(deck);
  auto& nl = *parsed.netlist;
  nl.assign_unknowns();
  an::OpOptions opt;
  opt.temp_k = num::celsius_to_kelvin(parsed.temp_c);
  const auto op = an::solve_op(nl, opt);
  return golden::drop_solver_time(an::op_report(nl, op));
}

std::string read_deck(const std::string& rel) {
  std::ifstream in(std::string(MSIM_TEST_DIR) + "/" + rel);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string mic_deck(int code) {
  ckt::Netlist nl;
  const auto pm = proc::ProcessModel::cmos12();
  const auto vdd = nl.node("vdd"), vss = nl.node("vss");
  const auto inp = nl.node("inp"), inn = nl.node("inn");
  nl.add<dev::VSource>("Vdd", vdd, ckt::kGround, 1.3);
  nl.add<dev::VSource>("Vss", vss, ckt::kGround, -1.3);
  nl.add<dev::VSource>("Vinp", inp, ckt::kGround,
                       dev::Waveform::dc(0.0).with_ac(0.5));
  nl.add<dev::VSource>("Vinn", inn, ckt::kGround,
                       dev::Waveform::dc(0.0).with_ac(-0.5));
  core::build_mic_amp(nl, pm, {}, vdd, vss, ckt::kGround, inp, inn)
      .set_gain_code(code);
  return spice::write_netlist(nl, "mic-amp");
}

TEST(OpReport, MicAmpMatchesGolden) {
  golden::expect("op_report/mic_amp_k0.txt",
                         solved_report(mic_deck(0)));
  golden::expect("op_report/mic_amp_k5.txt",
                         solved_report(mic_deck(5)));
}

TEST(OpReport, JunctionDecksMatchGoldens) {
  golden::expect(
      "op_report/bandgap_core.txt",
      solved_report(read_deck("../examples/netlists/bandgap_core.sp")));
  golden::expect("op_report/junctions.txt", solved_report(R"(junctions
.model qp pnp is=2e-17 bf=12
.model qn npn is=1e-16 bf=100 vaf=50
.model d1n d is=1e-15 n=1.0
vcc vcc 0 2
i1 0 e 10u
q1 0 0 e qp area=8
i2 0 a 1u
d1 a 0 d1n
rc vcc c 10k
rb vcc b 1meg
q2 c b 0 qn
.end
)"));
}

TEST(OpReport, SuppliedRangeReportMatchesOwnAnalysis) {
  auto parsed = spice::parse_netlist(mic_deck(3));
  auto& nl = *parsed.netlist;
  nl.assign_unknowns();
  const auto op = an::solve_op(nl);
  ASSERT_TRUE(op.converged);
  const std::string rep = an::op_report(nl, op);
  EXPECT_NE(rep.find("static value-range"), std::string::npos);
  EXPECT_EQ(an::op_report(nl, op, an::range_analysis(nl, {})), rep);
}

TEST(OpReport, OverlongLineStopsAt159Bytes) {
  // Table lines keep the historical 160-byte line buffer's cut.
  const std::string name(200, 'n');
  const std::string rep =
      solved_report("long names\nv1 " + name + " 0 1\nr1 " + name + " 0 1k\n");
  const std::size_t at = rep.find("  " + name.substr(0, 10));
  ASSERT_NE(at, std::string::npos) << rep;
  const std::string cut = "  " + name.substr(0, 157) + "sources:";
  EXPECT_EQ(rep.compare(at, cut.size(), cut), 0) << rep;
}

TEST(OpReport, FailedSolveMatchesGolden) {
  golden::expect("op_report/nan_resistor.txt",
                         solved_report(read_deck("faults/nan_resistor.sp")));
}

TEST(OpReport, EngineeringNotationEdges) {
  const std::string rep = solved_report(R"(eng edges
v1 a 0 999.96
v2 b 0 -1.5
v3 c 0 1e-16
v4 d 0 0
v5 e 0 999.96u
v6 f 0 -999.96m
v7 g 0 1.5k
v9 i 0 -3e-18
v10 j 0 1e-15
v11 k 0 999.4
r1 a 0 1
r2 b 0 1
r5 e 0 1
.end
)");
  golden::expect("op_report/eng_edges.txt", rep);
  // 999.96 rounds across the prefix boundary and takes the next prefix.
  EXPECT_NE(rep.find(" 1 kV\n"), std::string::npos) << rep;
  EXPECT_NE(rep.find(" 1 mV\n"), std::string::npos) << rep;
  EXPECT_NE(rep.find(" -1 V\n"), std::string::npos) << rep;
  EXPECT_EQ(rep.find("e+03"), std::string::npos) << rep;
  EXPECT_NE(rep.find("999 V\n"), std::string::npos) << rep;
  EXPECT_NE(rep.find("-1.5 V\n"), std::string::npos) << rep;
  EXPECT_NE(rep.find("1e-16 V\n"), std::string::npos) << rep;  // sub-femto
  EXPECT_NE(rep.find("-3e-18 V\n"), std::string::npos) << rep;
  EXPECT_NE(rep.find("0 V\n"), std::string::npos) << rep;
  EXPECT_NE(rep.find("1 fV\n"), std::string::npos) << rep;
  EXPECT_NE(rep.find("1.5 kV\n"), std::string::npos) << rep;
}

// A node a femtovolt-scale fraction under 1 V (the 1 mOhm / 1 TOhm
// divider) prints as 1 V: the prefix follows the rounded value.
TEST(OpReport, PrefixFollowsRounding) {
  const std::string rep = solved_report(
      "divider\nv1 a 0 dc 1\nr1 a b 1m\nr2 b 0 1e12\nc1 b 0 1p\n.op\n");
  EXPECT_NE(rep.find("\n  b                        1 V\n"), std::string::npos)
      << rep;
  EXPECT_EQ(rep.find("e+03"), std::string::npos) << rep;
  const std::string kv =
      solved_report("kilo\nv1 a 0 999.96\nr1 a 0 1\n.op\n");
  EXPECT_NE(kv.find("\n  a                        1 kV\n"), std::string::npos)
      << kv;
}

// printf's own rendering of one value, the reference the writer must
// reproduce byte for byte.
std::string printf_text(const char* format, double v) {
  char buf[400];
  const int n = std::snprintf(buf, sizeof buf, format, v);
  return std::string(buf, static_cast<std::size_t>(n));
}

TEST(TextWriter, MatchesPrintfByteForByte) {
  // Every (conversion, precision) pair the sources print through.
  struct Form {
    const char* printf_format;
    bool fixed;
    int prec;
  };
  const Form forms[] = {{"%g", false, 6},  {"%.6g", false, 6},
                        {"%.4g", false, 4}, {"%.3g", false, 3},
                        {"%.9g", false, 9}, {"%.17g", false, 17},
                        {"%.1f", true, 1},  {"%.3f", true, 3},
                        {"%.0f", true, 0}};
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {
      0.0, -0.0, kInf, -kInf, nan, -nan, kMax, -kMax, DBL_MIN, -DBL_MIN,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), DBL_MIN / 3.0,
      // Rounding ties and carries at each precision.
      0.5, 1.5, 2.5, -2.5, 0.05, 0.15, 0.25, 9.5, 99.95, 999999.5,
      9.9999995, 0.000099999995, 1e-5, 1e-4, 123456.5, 1234567.0, 1e15,
      1e16, 1e17, 0.1, 1.0 / 3.0, 2.0 / 3.0, 1e21, 1e22, 1e-300, 5e-324};
  std::mt19937_64 rng(20261018);
  std::uniform_real_distribution<double> mantissa(1.0, 10.0);
  std::uniform_int_distribution<int> decade(-30, 30);
  constexpr std::size_t kRandom = 1'000'000;
  for (std::size_t i = 0; i < kRandom; ++i) {
    if (i % 2 == 0) {
      // Any bit pattern: every exponent, subnormals, infinities, NaNs.
      const std::uint64_t bits = rng();
      double v;
      std::memcpy(&v, &bits, sizeof v);
      values.push_back(v);
    } else {
      // Circuit magnitudes: a mantissa in [1, 10) at a decade in
      // [1e-30, 1e30], either sign.
      const double v = mantissa(rng) * std::pow(10.0, decade(rng));
      values.push_back(rng() & 1 ? -v : v);
    }
  }
  for (const auto& f : forms) {
    std::size_t mismatches = 0;
    for (const double v : values) {
      std::string got;
      if (f.fixed)
        core::append_fixed(got, v, f.prec);
      else
        core::append_general(got, v, f.prec);
      const std::string want = printf_text(f.printf_format, v);
      if (got != want && ++mismatches <= 5)
        ADD_FAILURE() << f.printf_format << " of " << printf_text("%a", v)
                      << ": writer '" << got << "', printf '" << want << "'";
    }
    EXPECT_EQ(mismatches, 0u) << f.printf_format;
  }
  // "%.1f" of DBL_MAX is 311 characters plus the sign; the widest fixed
  // form the writer accepts still fits.
  EXPECT_EQ(core::TextWriter().fixed(-kMax, 1).take(),
            printf_text("%.1f", -kMax));
  EXPECT_EQ(core::TextWriter().fixed(-kMax, core::kMaxFixedPrecision).take(),
            printf_text("%.17f", -kMax));
  // A precision past the buffers is refused, not written as garbage.
  EXPECT_THROW(core::TextWriter().fixed(-kMax, core::kMaxFixedPrecision + 1),
               std::length_error);
  EXPECT_THROW(core::TextWriter().num(-1e-300, 40), std::length_error);
}

TEST(TextWriter, IntegersAndChainedTextMatchPrintf) {
  char buf[64];
  for (const long v : {0L, 1L, -1L, 42L, LONG_MIN, LONG_MAX}) {
    std::snprintf(buf, sizeof buf, "%ld", v);
    EXPECT_EQ(core::TextWriter().integer(v).take(), buf);
  }
  for (const int v : {INT_MIN, -7, 0, 8, INT_MAX}) {
    std::snprintf(buf, sizeof buf, "%d", v);
    EXPECT_EQ(core::TextWriter().integer(v).take(), buf);
  }
  for (const std::size_t v : {std::size_t{0}, std::size_t{51}, SIZE_MAX}) {
    std::snprintf(buf, sizeof buf, "%zu", v);
    EXPECT_EQ(core::TextWriter().integer(v).take(), buf);
  }
  std::snprintf(buf, sizeof buf, "* .tran %s  (T = %.1f C) %g,%.4g\n", "1u",
                27.0, 1e-5, -179.99999);
  EXPECT_EQ(core::TextWriter()
                .add("* .tran ")
                .add("1u")
                .add("  (T = ")
                .fixed(27.0, 1)
                .add(" C) ")
                .num(1e-5)
                .add(',')
                .num(-179.99999, 4)
                .add('\n')
                .take(),
            buf);
}

}  // namespace
