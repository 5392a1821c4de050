// Tests for the OP report renderer and the CSV exporter.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "analysis/op.h"
#include "analysis/op_report.h"
#include "circuit/netlist.h"
#include "devices/bjt.h"
#include "devices/mosfet.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "process/process.h"
#include "signal/csv.h"
#include "spicefmt/parser.h"
#include "spicefmt/writer.h"
#include "core/mic_amp.h"
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

TEST(Csv, RendersHeaderAndRows) {
  sig::CsvTable t;
  t.columns = {"x", "y"};
  t.add_row({1.0, 2.5});
  t.add_row({2.0, -3.125e-9});
  const std::string s = sig::to_csv(t);
  EXPECT_EQ(s, "x,y\n1,2.5\n2,-3.125e-09\n");
}

TEST(Csv, WritesFileRoundTrip) {
  sig::CsvTable t;
  t.columns = {"f", "mag"};
  for (int i = 1; i <= 5; ++i)
    t.add_row({double(i) * 10.0, 1.0 / i});
  const std::string path = "/tmp/msim_csv_test.csv";
  sig::write_csv(path, t);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "f,mag");
  int lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 5);
  std::remove(path.c_str());
}

TEST(Csv, ThrowsOnBadPath) {
  sig::CsvTable t;
  t.columns = {"a"};
  EXPECT_THROW(sig::write_csv("/nonexistent_dir_xyz/file.csv", t),
               std::runtime_error);
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
  // 999.96 rounds across the prefix boundary but keeps its prefix.
  EXPECT_NE(rep.find("1e+03 V\n"), std::string::npos) << rep;
  EXPECT_NE(rep.find("1e+03 uV\n"), std::string::npos) << rep;
  EXPECT_NE(rep.find("-1e+03 mV\n"), std::string::npos) << rep;
  EXPECT_NE(rep.find("999 V\n"), std::string::npos) << rep;
  EXPECT_NE(rep.find("-1.5 V\n"), std::string::npos) << rep;
  EXPECT_NE(rep.find("1e-16 V\n"), std::string::npos) << rep;  // sub-femto
  EXPECT_NE(rep.find("-3e-18 V\n"), std::string::npos) << rep;
  EXPECT_NE(rep.find("0 V\n"), std::string::npos) << rep;
  EXPECT_NE(rep.find("1 fV\n"), std::string::npos) << rep;
  EXPECT_NE(rep.find("1.5 kV\n"), std::string::npos) << rep;
}

}  // namespace
