// Assembly-engine tests: the stamp-slot cache (zero pattern searches
// after warm-up, for the real dcop/transient passes, the AC sweep
// image, and Monte-Carlo cache adoption), slot invalidation on
// topology edits, batched-vs-legacy bit-identity under every assembly
// mode, the AC image against per-device point assembly, and the
// stamp/factor/solve telemetry breakdown.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "analysis/ac.h"
#include "analysis/mna.h"
#include "analysis/noise.h"
#include "analysis/op.h"
#include "analysis/op_report.h"
#include "analysis/range.h"
#include "analysis/transient.h"
#include "bench_util.h"
#include "circuit/netlist.h"
#include "devices/bjt.h"
#include "devices/controlled.h"
#include "devices/diode.h"
#include "devices/mos_switch.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "numeric/sparse.h"
#include "serve/deck.h"
#include "spicefmt/parser.h"

namespace {

using namespace msim;

// Bitwise comparison that treats NaN == NaN (fault netlists stamp NaN
// conductances; "bit-for-bit" must still hold through them).
template <typename T>
void expect_bits_equal(const std::vector<T>& a, const std::vector<T>& b,
                       const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0)
        << what;
  }
}

// ---- zero searches after warm-up ------------------------------------

TEST(AssemblySlots, RealSystemReplaysWithZeroSearches) {
  auto rig = bench::make_mic_rig();
  rig->mic.set_gain_code(5);
  an::OpOptions oo;
  oo.solver = an::SolverKind::kSparse;
  const auto op = an::solve_op(rig->nl, oo);
  ASSERT_TRUE(op.converged);

  an::RealSystem sys;
  sys.init(rig->nl, an::SolverKind::kSparse);
  for (const auto mode :
       {ckt::AnalysisMode::kDcOp, ckt::AnalysisMode::kTransient}) {
    an::AssembleParams p;
    p.mode = mode;
    p.dt = 1e-6;
    // Warm-up records the slot tables for this (pass, mode) pair.
    sys.invalidate_base();
    sys.assemble(rig->nl, op.x, p);
    // Replay: a full re-assembly (base restamp included, as in the
    // transient hot loop) must not touch the pattern binary search.
    sys.invalidate_base();
    const long s0 = num::sparse_search_count();
    sys.assemble(rig->nl, op.x, p);
    EXPECT_EQ(num::sparse_search_count() - s0, 0)
        << "mode " << static_cast<int>(mode);
  }
}

TEST(AssemblySlots, AcImageReplaysAndPointsSearchNothing) {
  auto rig = bench::make_mic_rig();
  an::OpOptions oo;
  oo.solver = an::SolverKind::kSparse;
  const auto op = an::solve_op(rig->nl, oo);
  ASSERT_TRUE(op.converged);  // save_op ran: stamp_ac is well-defined

  const an::AcImage recorded(rig->nl, an::SolverKind::kSparse, 1e-12);
  EXPECT_TRUE(rig->nl.solver_cache().slots->ac.recorded);
  const long s0 = num::sparse_search_count();
  const an::AcImage replayed(rig->nl, an::SolverKind::kSparse, 1e-12);
  an::ComplexSystem sys(replayed);
  for (double f : {1e3, 1e4, 1e5}) sys.assemble(2.0 * M_PI * f);
  EXPECT_EQ(num::sparse_search_count() - s0, 0);
}

TEST(AssemblySlots, ColdSolveAfterRangePassSearchesNothing) {
  // A cold job runs the value-range pass before its first solve.  The
  // pass's conditioning forecast records the DC slot tables (the job's
  // one searched assembly) and the solve replays them: the pair
  // searches exactly as much as the solve alone, and the solve nothing.
  an::OpOptions no_lint;
  no_lint.lint = false;
  auto alone = bench::make_mic_rig();
  alone->nl.assign_unknowns();
  long s0 = num::sparse_search_count();
  const auto ref = an::solve_op(alone->nl, no_lint);
  ASSERT_TRUE(ref.converged);
  const long solve_alone = num::sparse_search_count() - s0;

  auto rig = bench::make_mic_rig();
  rig->nl.assign_unknowns();
  s0 = num::sparse_search_count();
  (void)an::range_analysis(rig->nl);
  const long range = num::sparse_search_count() - s0;
  EXPECT_TRUE(rig->nl.solver_cache().slots->base_dcop.recorded);
  EXPECT_TRUE(rig->nl.solver_cache().slots->newton_dcop.recorded);
  s0 = num::sparse_search_count();
  const auto op = an::solve_op(rig->nl, no_lint);
  ASSERT_TRUE(op.converged);
  EXPECT_EQ(num::sparse_search_count() - s0, 0);
  EXPECT_EQ(range, solve_alone);
  EXPECT_GT(range, 0);
  EXPECT_EQ(op.x, ref.x);
}

TEST(AssemblySlots, AdoptedCacheReplaysFromTheFirstAssembly) {
  // Monte-Carlo idiom: the nominal build resolves the slot tables once;
  // a sample that adopts its solver cache must replay immediately --
  // zero pattern searches even on its very first assembly.
  auto nominal = bench::make_mic_rig();
  an::OpOptions oo;
  oo.solver = an::SolverKind::kSparse;
  const auto op = an::solve_op(nominal->nl, oo);
  ASSERT_TRUE(op.converged);

  auto sample = bench::make_mic_rig();
  sample->nl.adopt_solver_cache(nominal->nl);
  sample->nl.assign_unknowns();
  an::RealSystem sys;
  sys.init(sample->nl, an::SolverKind::kSparse);

  an::AssembleParams p;  // kDcOp: the pass the nominal solve recorded
  const num::RealVector x0(op.x.size(), 0.0);
  const long s0 = num::sparse_search_count();
  sys.assemble(sample->nl, x0, p);
  EXPECT_EQ(num::sparse_search_count() - s0, 0);
}

// ---- invalidation on topology edits ---------------------------------

TEST(AssemblySlots, TopologyEditInvalidatesSlotsAndMatchesFreshBuild) {
  // Solve once (caches pattern, symbolic, and slot tables), then edit
  // the topology.  The next init must notice the structure-revision
  // bump, rebuild everything, and stamp exactly what a from-scratch
  // netlist of the edited topology stamps.
  auto edited = bench::make_mic_rig();
  an::OpOptions oo;
  oo.solver = an::SolverKind::kSparse;
  ASSERT_TRUE(an::solve_op(edited->nl, oo).converged);
  const auto rev_before = edited->nl.structure_revision();

  auto grow = [](bench::MicRig& r) {
    r.nl.add<dev::Resistor>("Rextra", r.nl.node("inp"), ckt::kGround,
                            1e6);
    r.nl.assign_unknowns();
  };
  grow(*edited);
  EXPECT_NE(edited->nl.structure_revision(), rev_before);

  auto fresh = bench::make_mic_rig();  // never solved: no stale cache
  grow(*fresh);

  an::AssembleParams p;
  p.mode = ckt::AnalysisMode::kTransient;
  p.dt = 1e-6;
  const num::RealVector x0(
      static_cast<std::size_t>(edited->nl.unknown_count()), 0.0);

  an::RealSystem se, sf;
  se.init(edited->nl, an::SolverKind::kSparse);
  sf.init(fresh->nl, an::SolverKind::kSparse);
  se.assemble(edited->nl, x0, p);
  sf.assemble(fresh->nl, x0, p);

  expect_bits_equal(se.sparse_jac().values(), sf.sparse_jac().values(),
                    "jac after topology edit");
  ASSERT_EQ(se.rhs().size(), sf.rhs().size());
  for (std::size_t i = 0; i < se.rhs().size(); ++i)
    EXPECT_EQ(se.rhs()[i], sf.rhs()[i]) << "rhs " << i;

  // The rebuilt tables are re-keyed to the edited netlist's revision
  // and replay cleanly again.
  EXPECT_EQ(edited->nl.solver_cache().structure_rev,
            edited->nl.structure_revision());
  se.invalidate_base();
  const long s0 = num::sparse_search_count();
  se.assemble(edited->nl, x0, p);
  EXPECT_EQ(num::sparse_search_count() - s0, 0);
}

// ---- replay mismatch and fallback -----------------------------------

struct Snapshot {
  std::vector<double> vals;
  num::RealVector rhs;
};

void expect_snapshots_equal(const Snapshot& a, const Snapshot& b,
                            const std::string& what) {
  expect_bits_equal(a.vals, b.vals, what + " jac");
  expect_bits_equal(a.rhs, b.rhs, what + " rhs");
}

Snapshot snapshot(an::RealSystem& sys) {
  return {sys.sparse_jac().values(), sys.rhs()};
}

// One assembly by the searched per-device path (the oracle).
Snapshot searched_assembly(const ckt::Netlist& nl, const num::RealVector& x,
                           const an::AssembleParams& p) {
  an::RealSystem ref;
  ref.init(nl, an::SolverKind::kSparse);
  ref.set_assembly_modes(false, false);
  ref.assemble(nl, x, p);
  return snapshot(ref);
}

void expect_same_slots(const std::vector<num::StampSlot>& a,
                       const std::vector<num::StampSlot>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].row, b[i].row) << "slot " << i;
    EXPECT_EQ(a[i].col, b[i].col) << "slot " << i;
    EXPECT_EQ(a[i].idx, b[i].idx) << "slot " << i;
  }
}

TEST(AssemblySlots, SwappedSlotsInAdoptedTableFallBackAndReRecord) {
  // A cached Newton-pass table whose window lengths are all right but
  // whose order is not (two slots of one device swapped) must never be
  // trusted: the first replay checks it write by write, assembles the
  // searched matrix, and the system re-records a correct table.
  auto rig = bench::make_mic_rig();
  rig->mic.set_gain_code(5);
  const auto op = an::solve_op(rig->nl);
  ASSERT_TRUE(op.converged);
  auto& cache = rig->nl.solver_cache();
  const num::StampSlotPass good = cache.slots->newton_dcop;
  ASSERT_TRUE(good.recorded);

  auto bad = std::make_shared<num::StampSlotTables>(*cache.slots);
  auto& slots = bad->newton_dcop.slots;
  bool swapped = false;
  for (const auto& [b, e] : bad->newton_dcop.windows) {
    for (int i = b; i + 1 < e && !swapped; ++i)
      if (slots[static_cast<std::size_t>(i)].idx !=
          slots[static_cast<std::size_t>(i) + 1].idx) {
        std::swap(slots[static_cast<std::size_t>(i)],
                  slots[static_cast<std::size_t>(i) + 1]);
        swapped = true;
      }
    if (swapped) break;
  }
  ASSERT_TRUE(swapped);
  cache.slots = bad;

  an::AssembleParams p;  // kDcOp, gmin 1e-12: the pass solve_op recorded
  const Snapshot ref = searched_assembly(rig->nl, op.x, p);
  an::RealSystem sys;
  sys.init(rig->nl, an::SolverKind::kSparse);
  sys.assemble(rig->nl, op.x, p);
  expect_snapshots_equal(snapshot(sys), ref, "swapped-table replay");
  // The failed replay scheduled a re-record; the next assembly records
  // and publishes the searched resolve again.
  sys.assemble(rig->nl, op.x, p);
  expect_snapshots_equal(snapshot(sys), ref, "re-record");
  expect_same_slots(cache.slots->newton_dcop.slots, good.slots);
  const long s0 = num::sparse_search_count();
  sys.assemble(rig->nl, op.x, p);
  EXPECT_EQ(num::sparse_search_count() - s0, 0);
  expect_snapshots_equal(snapshot(sys), ref, "replay of the new table");
}

TEST(AssemblySlots, GminSwitchedOffAfterRecordMatchesSearchedPath) {
  // The MOSFET gmin shunt adds writes only while gmin > 0, so a table
  // recorded at gmin = 1e-12 is too long for a gmin = 0 assembly (and
  // the re-recorded one too short when gmin returns).
  auto rig = bench::make_mic_rig();
  rig->mic.set_gain_code(5);
  const auto op = an::solve_op(rig->nl);
  ASSERT_TRUE(op.converged);

  an::RealSystem sys;
  sys.init(rig->nl, an::SolverKind::kSparse);
  an::AssembleParams p;
  ASSERT_EQ(p.gmin, 1e-12);
  for (int k = 0; k < 2; ++k) sys.assemble(rig->nl, op.x, p);
  expect_snapshots_equal(snapshot(sys), searched_assembly(rig->nl, op.x, p),
                         "gmin 1e-12");
  p.gmin = 0.0;
  const Snapshot ref0 = searched_assembly(rig->nl, op.x, p);
  for (int k = 0; k < 3; ++k) {
    sys.assemble(rig->nl, op.x, p);
    expect_snapshots_equal(snapshot(sys), ref0,
                           "gmin 0, assembly " + std::to_string(k));
  }
  p.gmin = 1e-12;
  const Snapshot ref1 = searched_assembly(rig->nl, op.x, p);
  for (int k = 0; k < 3; ++k) {
    sys.assemble(rig->nl, op.x, p);
    expect_snapshots_equal(snapshot(sys), ref1,
                           "gmin back to 1e-12, assembly " +
                               std::to_string(k));
  }

  // The other way round: a table first recorded at gmin = 0 (a fresh
  // netlist, nothing cached) is too short once gmin = 1e-12.
  auto fresh = bench::make_mic_rig();
  fresh->mic.set_gain_code(5);
  fresh->nl.assign_unknowns();
  an::RealSystem sys0;
  sys0.init(fresh->nl, an::SolverKind::kSparse);
  p.gmin = 0.0;
  for (int k = 0; k < 2; ++k) sys0.assemble(fresh->nl, op.x, p);
  expect_snapshots_equal(snapshot(sys0),
                         searched_assembly(fresh->nl, op.x, p),
                         "recorded at gmin 0");
  p.gmin = 1e-12;
  const Snapshot ref2 = searched_assembly(fresh->nl, op.x, p);
  for (int k = 0; k < 3; ++k) {
    sys0.assemble(fresh->nl, op.x, p);
    expect_snapshots_equal(snapshot(sys0), ref2,
                           "recorded at gmin 0, replayed at 1e-12, "
                           "assembly " + std::to_string(k));
  }
}

// ---- batched vs legacy bit-identity ---------------------------------

// Assembles one freshly built rig in the given mode after an identical
// solve history, so device-internal limiting state matches exactly
// across modes and the stamped images are comparable bit-for-bit.

// The system assembles three times: the first assembly records the
// Newton pass (or checks the adopted table write by write) and the later
// ones replay the table the first one recorded or checked.
template <typename MakeRig>
Snapshot assemble_in_mode(const MakeRig& make, bool slots, bool batches,
                          ckt::AnalysisMode mode, bool trapezoidal) {
  auto rig = make();
  an::OpOptions oo;
  oo.solver = an::SolverKind::kSparse;
  const auto op = an::solve_op(rig->nl, oo);
  EXPECT_TRUE(op.converged);

  an::RealSystem sys;
  sys.init(rig->nl, an::SolverKind::kSparse);
  sys.set_assembly_modes(slots, batches);
  an::AssembleParams p;
  p.mode = mode;
  p.dt = 1e-6;
  p.use_trapezoidal = trapezoidal;
  for (int k = 0; k < 3; ++k) sys.assemble(rig->nl, op.x, p);
  return {sys.sparse_jac().values(), sys.rhs()};
}

template <typename MakeRig>
void expect_modes_identical(const MakeRig& make, ckt::AnalysisMode mode,
                            const char* what, bool trapezoidal = true) {
  const auto legacy = assemble_in_mode(make, false, false, mode, trapezoidal);
  const auto slot = assemble_in_mode(make, true, false, mode, trapezoidal);
  const auto batched = assemble_in_mode(make, true, true, mode, trapezoidal);
  expect_bits_equal(legacy.vals, slot.vals, what);
  expect_bits_equal(legacy.vals, batched.vals, what);
  ASSERT_EQ(legacy.rhs.size(), slot.rhs.size());
  ASSERT_EQ(legacy.rhs.size(), batched.rhs.size());
  for (std::size_t i = 0; i < legacy.rhs.size(); ++i) {
    EXPECT_EQ(legacy.rhs[i], slot.rhs[i]) << what << " rhs " << i;
    EXPECT_EQ(legacy.rhs[i], batched.rhs[i]) << what << " rhs " << i;
  }
}

TEST(AssemblyBatching, MicAmpBitIdenticalAcrossModes) {
  const auto make = [] {
    auto r = bench::make_mic_rig();
    r->mic.set_gain_code(5);
    return r;
  };
  expect_modes_identical(make, ckt::AnalysisMode::kDcOp, "mic dcop");
  expect_modes_identical(make, ckt::AnalysisMode::kTransient, "mic tran");
}

TEST(AssemblyBatching, ChipBitIdenticalAcrossModes) {
  const auto make = [] { return bench::make_chip_rig(); };
  expect_modes_identical(make, ckt::AnalysisMode::kDcOp, "chip dcop");
  expect_modes_identical(make, ckt::AnalysisMode::kTransient,
                         "chip tran");
  // The chip's class-AB output buffer on its own, under the Table 2
  // full-swing drive: the Newton pass of the THD shooting workload,
  // with trapezoidal and backward-Euler companion models.
  const auto buffer = [] {
    auto r = bench::make_drv_rig();
    r->vsp->set_waveform(dev::Waveform::sine(0.0, 0.3, 1e3));
    r->vsn->set_waveform(dev::Waveform::sine(0.0, -0.3, 1e3));
    return r;
  };
  expect_modes_identical(buffer, ckt::AnalysisMode::kTransient,
                         "buffer tran trapezoidal", true);
  expect_modes_identical(buffer, ckt::AnalysisMode::kTransient,
                         "buffer tran backward euler", false);
}

TEST(AssemblyBatching, LegacyModeStillSearches) {
  // The oracle must actually be the searched path: with both knobs off
  // a re-assembly keeps paying pattern lookups (otherwise the zero-
  // search assertions above would be vacuous).
  auto rig = bench::make_mic_rig();
  an::OpOptions oo;
  oo.solver = an::SolverKind::kSparse;
  const auto op = an::solve_op(rig->nl, oo);
  ASSERT_TRUE(op.converged);

  an::RealSystem sys;
  sys.init(rig->nl, an::SolverKind::kSparse);
  sys.set_assembly_modes(false, false);
  an::AssembleParams p;
  sys.assemble(rig->nl, op.x, p);
  sys.invalidate_base();
  const long s0 = num::sparse_search_count();
  sys.assemble(rig->nl, op.x, p);
  EXPECT_GT(num::sparse_search_count() - s0, 0);
}

// ---- telemetry breakdown --------------------------------------------

TEST(AssemblyTelemetry, TransientReportsTimeBreakdown) {
  auto rig = bench::make_mic_rig();
  rig->vinp->set_waveform(dev::Waveform::sine(0.0, 1e-3, 1e3));
  rig->vinn->set_waveform(dev::Waveform::sine(0.0, -1e-3, 1e3));
  an::TranOptions t;
  t.t_stop = 50e-6;
  t.dt = 1e-6;
  const auto res = an::run_transient(rig->nl, t);
  ASSERT_TRUE(res.ok);
  EXPECT_GT(res.telemetry.stamp_ns, 0);
  EXPECT_GT(res.telemetry.factor_ns, 0);
  EXPECT_GT(res.telemetry.solve_ns, 0);
  const auto json = serve::tran_stats_json(res.telemetry).dump();
  EXPECT_NE(json.find("\"stamp_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"factor_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"solve_ns\""), std::string::npos);
  const auto text = res.telemetry.summary();
  EXPECT_NE(text.find("solver time"), std::string::npos);
}

TEST(AssemblyTelemetry, OpReportIncludesSolverTime) {
  auto rig = bench::make_mic_rig();
  an::OpOptions oo;
  oo.solver = an::SolverKind::kSparse;
  const auto op = an::solve_op(rig->nl, oo);
  ASSERT_TRUE(op.converged);
  EXPECT_GT(op.solver_stats.stamp_ns, 0);
  const auto report = an::op_report(rig->nl, op);
  EXPECT_NE(report.find("solver time:"), std::string::npos);
}

// ---- the AC/noise sweep image ---------------------------------------

// The sparse point values for every omega of the contract, built from
// the sweep image, must equal the per-device assemble_ac on the same
// CSR skeleton bit for bit, matrix and rhs.
void expect_image_matches_point_assembly(const ckt::Netlist& nl,
                                         const std::string& what) {
  constexpr double kGshunt = 1e-12;
  const an::AcImage image(nl, an::SolverKind::kSparse, kGshunt);
  an::ComplexSystem sys(image);
  for (double f : {10.0, 1e3, 1e6, 1e9}) {
    const double omega = 2.0 * M_PI * f;
    sys.assemble(omega);
    num::ComplexSparseMatrix ref(an::mna_skeleton(nl));
    num::ComplexVector ref_rhs;
    an::assemble_ac(nl, omega, kGshunt, ref, ref_rhs);
    const std::string at = what + " at f = " + std::to_string(f);
    expect_bits_equal(sys.sparse_jac().values(), ref.values(), at);
    expect_bits_equal(sys.rhs(), ref_rhs, at + " rhs");
  }
}

// Every device class the rigs and decks leave out of stamp_ac coverage:
// a BJT stage with an inductor, diode, VCVS, CCCS, CCVS, a closed switch
// and AC-driven voltage and current sources.
std::unique_ptr<ckt::Netlist> every_device_deck() {
  auto nl = std::make_unique<ckt::Netlist>();
  const auto vdd = nl->node("vdd"), in = nl->node("in"), b = nl->node("b");
  const auto c = nl->node("c"), e = nl->node("e"), dn = nl->node("dn");
  const auto m = nl->node("m"), ml = nl->node("ml");
  const auto o1 = nl->node("o1"), o2 = nl->node("o2");
  const auto o3 = nl->node("o3"), o4 = nl->node("o4");
  const auto gnd = ckt::kGround;
  nl->add<dev::VSource>("Vdd", vdd, gnd, 3.0);
  nl->add<dev::VSource>("Vin", in, gnd, dev::Waveform::dc(0.7).with_ac(1.0));
  nl->add<dev::Resistor>("Rb", in, b, 1e3);
  nl->add<dev::Bjt>("Q1", c, b, e, dev::BjtParams{});
  nl->add<dev::Resistor>("Rc", vdd, c, 5e3);
  nl->add<dev::Resistor>("Re", e, gnd, 100.0);
  nl->add<dev::Capacitor>("Ce", e, gnd, 1e-9);
  nl->add<dev::Diode>("D1", c, dn, dev::DiodeParams{});
  nl->add<dev::Resistor>("Rd", dn, gnd, 1e4);
  nl->add<dev::Inductor>("L1", c, m, 1e-3);
  const auto* sense = nl->add<dev::VSource>("Vs", m, ml, 0.0);
  nl->add<dev::Resistor>("Rl", ml, gnd, 1e3);
  nl->add<dev::Vcvs>("E1", o1, gnd, c, gnd, 2.0);
  nl->add<dev::Resistor>("Ro1", o1, gnd, 1e3);
  nl->add<dev::Cccs>("F1", o2, gnd, sense, 3.0);
  nl->add<dev::Resistor>("Ro2", o2, gnd, 1e3);
  nl->add<dev::ISource>("I1", gnd, o2, dev::Waveform::dc(0.0).with_ac(1e-6));
  nl->add<dev::Ccvs>("H1", o3, gnd, sense, 100.0);
  nl->add<dev::Resistor>("Ro3", o3, gnd, 1e3);
  nl->add<dev::Resistor>("Ro4", o4, gnd, 1e3);
  nl->add<dev::MosSwitch>("S1", o4, o3, 100.0, 1e12, true);
  return nl;
}

TEST(AcImage, MatchesPerDeviceAssemblyBitForBit) {
  std::vector<std::string> decks;
  for (const char* dir : {"/faults", "/../examples/netlists"})
    for (const auto& e : std::filesystem::directory_iterator(
             std::string(MSIM_TEST_DIR) + dir))
      if (e.path().extension() == ".sp") decks.push_back(e.path().string());
  std::sort(decks.begin(), decks.end());
  ASSERT_GE(decks.size(), 13u);
  an::OpOptions no_lint;
  no_lint.lint = false;
  for (const auto& path : decks) {
    auto parsed = spice::parse_netlist_file(path);
    auto& nl = *parsed.netlist;
    nl.assign_unknowns();
    // Decks that do not solve still stamp (around a default operating
    // point); the image must agree either way.
    an::solve_op(nl, no_lint);
    expect_image_matches_point_assembly(nl, path);
  }

  auto mic = bench::make_mic_rig();
  for (int code = 0; code <= 5; ++code) {
    mic->mic.set_gain_code(code);
    ASSERT_TRUE(an::solve_op(mic->nl).converged) << "gain code " << code;
    expect_image_matches_point_assembly(mic->nl,
                                        "mic code " + std::to_string(code));
  }

  ckt::Netlist chip;
  auto parts = bench::build_chip_into(chip);
  parts.vinp->set_waveform(dev::Waveform::dc(0.0).with_ac(0.5));
  parts.vinn->set_waveform(dev::Waveform::dc(0.0).with_ac(-0.5));
  ASSERT_TRUE(an::solve_op(chip).converged);
  expect_image_matches_point_assembly(chip, "chip");

  auto mixed = every_device_deck();
  ASSERT_TRUE(an::solve_op(*mixed).converged);
  expect_image_matches_point_assembly(*mixed, "every-device deck");
}

// A capacitor that counts its stamp_ac calls.
class CountingCapacitor : public ckt::Device {
 public:
  CountingCapacitor(std::string name, ckt::NodeId p, ckt::NodeId n)
      : Device(std::move(name), {p, n}) {}
  std::string_view type() const override { return "counting_capacitor"; }
  void stamp(ckt::StampContext&) const override {}  // open at DC
  void stamp_ac(ckt::AcStampContext& ctx) const override {
    ++calls;
    ctx.add_admittance(nodes_[0], nodes_[1], {0.0, 1e-12});
  }
  mutable int calls = 0;
};

TEST(AcImage, SparseSweepStampsEachDeviceOnce) {
  auto rig = bench::make_mic_rig();
  auto* probe = rig->nl.add<CountingCapacitor>("Cprobe", rig->mic.outp,
                                               rig->mic.outn);
  ASSERT_TRUE(an::solve_op(rig->nl).converged);
  const auto freqs = an::log_frequencies(10.0, 1e6, 4);
  // lint off: debug builds' stamp_contract pass calls stamp_ac too.
  for (int threads : {1, 4}) {
    an::AcOptions ao;
    ao.lint = false;
    ao.threads = threads;
    probe->calls = 0;
    ASSERT_TRUE(an::run_ac_diag(rig->nl, freqs, ao).ok());
    EXPECT_EQ(probe->calls, 1) << "ac, threads " << threads;

    an::NoiseOptions no;
    no.out_p = rig->mic.outp;
    no.out_n = rig->mic.outn;
    no.lint = false;
    no.threads = threads;
    probe->calls = 0;
    ASSERT_TRUE(an::run_noise_diag(rig->nl, freqs, no).ok());
    EXPECT_EQ(probe->calls, 1) << "noise, threads " << threads;
  }
  // The dense engine, the per-point reference, stamps at every point.
  an::AcOptions dense;
  dense.lint = false;
  dense.solver = an::SolverKind::kDense;
  probe->calls = 0;
  ASSERT_TRUE(an::run_ac_diag(rig->nl, freqs, dense).ok());
  EXPECT_EQ(probe->calls, static_cast<int>(freqs.size()));
}

}  // namespace
