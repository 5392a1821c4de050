// Serve layer: JSON protocol codec, the cross-request solver-cache
// registry (adopt/publish/collision-guard/LRU), the shared deck runner
// (CLI-equivalent bytes, warm zero-search repeats, whole-result memo,
// Monte-Carlo mode), the work-stealing scheduler (bit-identity at any
// worker count) and the Unix-socket daemon end to end.
//
// Run under TSan by tools/run_static_checks.sh: the concurrent
// adopt/evict stress and the daemon smoke are the data-race gates for
// the shared-immutable cache design.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/ac.h"
#include "analysis/mna.h"
#include "analysis/op.h"
#include "analysis/structural.h"
#include "core/budget.h"
#include "core/mic_amp.h"
#include "devices/sources.h"
#include "golden_util.h"
#include "process/process.h"
#include "numeric/sparse.h"
#include "numeric/units.h"
#include "serve/deck.h"
#include "serve/json.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "spicefmt/parser.h"
#include "spicefmt/writer.h"

namespace {

using namespace msim;
using serve::CacheRegistry;
using serve::DeckOptions;
using serve::DeckResult;
using serve::Json;

// -------------------------------------------------------------------
// Test decks (all lint-clean).

// Divider + .op only.
constexpr const char* kOpDeck =
    "* divider\n"
    "v1 in 0 dc 1.0\n"
    "r1 in out 1k\n"
    "r2 out 0 1k\n"
    ".op\n"
    ".end\n";

// RC low-pass, .op + .ac (exercises the shared AC slot pass).
constexpr const char* kAcDeck =
    "* rc low-pass\n"
    "v1 in 0 dc 0 ac 1\n"
    "r1 in out 1k\n"
    "c1 out 0 100n\n"
    ".op\n"
    ".ac dec 5 10 10k\n"
    ".end\n";

// RC step response, short transient.
constexpr const char* kTranDeck =
    "* rc step\n"
    "v1 in 0 pulse(0 1 1u 1u 1u 50u 100u)\n"
    "r1 in out 1k\n"
    "c1 out 0 1n\n"
    ".tran 1u 40u\n"
    ".end\n";

// Distinct topology (three-node ladder) for multi-entry registry tests.
constexpr const char* kLadderDeck =
    "* ladder\n"
    "v1 in 0 dc 2.0\n"
    "r1 in a 1k\n"
    "r2 a b 2k\n"
    "r3 b 0 3k\n"
    ".op\n"
    ".end\n";

// Drops the wall-clock-dependent "solver time: ..." telemetry line; the
// rest of an op report is deterministic.
std::string strip_timing(const std::string& s) {
  std::string out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t nl = s.find('\n', pos);
    if (nl == std::string::npos) nl = s.size() - 1;
    const std::string line = s.substr(pos, nl - pos + 1);
    if (line.rfind("solver time:", 0) != 0) out += line;
    pos = nl + 1;
  }
  return out;
}

DeckResult run_no_memo(const std::string& deck, CacheRegistry* reg,
                       DeckOptions opt = {}) {
  opt.use_result_cache = false;
  return serve::run_deck(deck, opt, reg);
}

// -------------------------------------------------------------------
// JSON codec.

TEST(ServeJson, RoundTripAndDeterministicDump) {
  Json j = Json::object();
  j.set("b", true);
  j.set("a", 42);
  j.set("s", "line\nbreak \"quoted\" \\ tab\t");
  j.set("x", 1.25);
  Json arr = Json::array();
  arr.push(1);
  arr.push("two");
  arr.push(Json());
  j.set("list", std::move(arr));

  const std::string d = j.dump();
  // Sorted keys, one line.
  EXPECT_EQ(d.find('\n'), std::string::npos);
  EXPECT_LT(d.find("\"a\""), d.find("\"b\""));

  std::string err;
  const Json back = Json::parse(d, &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(back["a"].as_number(), 42.0);
  EXPECT_TRUE(back["b"].as_bool());
  EXPECT_EQ(back["s"].as_string(), j["s"].as_string());
  EXPECT_EQ(back["list"].items().size(), 3u);
  EXPECT_EQ(back["list"].items()[1].as_string(), "two");
  EXPECT_TRUE(back["list"].items()[2].is_null());
  // dump(parse(dump(x))) is a fixed point.
  EXPECT_EQ(back.dump(), d);
}

TEST(ServeJson, NumbersAndEscapes) {
  EXPECT_EQ(Json(3.0).dump(), "3");
  EXPECT_EQ(Json(-17).dump(), "-17");
  EXPECT_EQ(Json::parse("1e3")["x"].is_null(), true);  // scalar, no keys
  EXPECT_EQ(Json::parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(Json::parse("\"a\\u0041b\"").as_string(), "aAb");
  // Non-integral numbers print as the shortest text that reads back
  // to the same double.
  EXPECT_EQ(Json(0.1).dump(), "0.1");
  EXPECT_EQ(Json(0.4).dump(), "0.4");
  EXPECT_EQ(Json(-1.3).dump(), "-1.3");
  EXPECT_EQ(Json(5e-05).dump(), "5e-05");
  EXPECT_EQ(Json(2.7154e-14).dump(), "2.7154e-14");
  EXPECT_EQ(Json(1.0 / 3.0).dump(), "0.3333333333333333");
  EXPECT_EQ(Json(1e300).dump(), "1e+300");
  for (double v : {0.1, 1.0 / 3.0, -2.6 + 3.4, 6.02214076e23, 4.9e-324})
    EXPECT_EQ(Json::parse(Json(v).dump()).as_number(), v) << v;

  // Every byte round-trips, alone and inside one string.
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    EXPECT_EQ(Json::parse(Json(one).dump()).as_string(), one) << b;
    all += one;
  }
  EXPECT_EQ(Json::parse(Json(all).dump()).as_string(), all);
  // The rendering is the per-byte escaper's: named escapes for quote,
  // backslash, \n, \r and \t, \u00XX for the other control bytes,
  // everything from 0x20 up (UTF-8 included) verbatim.
  EXPECT_EQ(Json(all.substr(0, 0x20)).dump(),
            "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
            "\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011"
            "\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019"
            "\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\"");
  EXPECT_EQ(Json(all.substr(0x20)).dump(),
            "\" !\\\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ["
            "\\\\]^_`abcdefghijklmnopqrstuvwxyz{|}~\x7f" +
                all.substr(0x80) + "\"");
  // Escapes at the first and last byte, and long escape-free runs.
  EXPECT_EQ(Json("\"mid\n").dump(), "\"\\\"mid\\n\"");
  const std::string a(4000, 'a'), b(3000, 'b');
  EXPECT_EQ(Json(a + "\t" + b).dump(), "\"" + a + "\\t" + b + "\"");
  EXPECT_EQ(Json::parse("\"" + a + "\\u0041\\/" + b + "\"").as_string(),
            a + "A/" + b);
}

TEST(ServeJson, MalformedInputsReportErrors) {
  for (const char* bad :
       {"{", "[1,", "\"unterminated", "{\"a\":}", "tru", "{} extra",
        "{\"a\" 1}"}) {
    std::string err;
    const Json j = Json::parse(bad, &err);
    EXPECT_TRUE(j.is_null()) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

// The parser recurses per nested value: nesting past its fixed cap is a
// parse error, not a stack overflow.
TEST(ServeJson, DeepNestingIsAnErrorNotACrash) {
  for (const char* open : {"[", "{\"a\":"}) {
    std::string deep;
    for (int i = 0; i < 100000; ++i) deep += open;
    std::string err;
    const Json j = Json::parse(deep, &err);
    EXPECT_TRUE(j.is_null()) << open;
    EXPECT_EQ(err, "nesting too deep") << open;
  }
  // Well-formed nesting under the cap still parses.
  std::string ok(100, '[');
  ok += std::string(100, ']');
  std::string err;
  EXPECT_TRUE(Json::parse(ok, &err).is_array()) << err;
}

// -------------------------------------------------------------------
// Registry: adopt / publish / collision guard / LRU.

TEST(ServeRegistry, ColdMissThenWarmHitSameBytes) {
  CacheRegistry reg;
  const DeckResult cold = run_no_memo(kOpDeck, &reg);
  ASSERT_EQ(cold.exit_code, 0) << cold.err;
  EXPECT_FALSE(cold.warm);

  const DeckResult warm = run_no_memo(kOpDeck, &reg);
  ASSERT_EQ(warm.exit_code, 0) << warm.err;
  EXPECT_TRUE(warm.warm);
  // Identical deck values -> identical symbolic -> identical bytes
  // modulo the wall-clock telemetry line.
  EXPECT_EQ(strip_timing(warm.out), strip_timing(cold.out));
  EXPECT_EQ(warm.err, cold.err);

  const serve::RegistryStats s = reg.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.fingerprint_collisions, 0);
  EXPECT_GT(s.bytes, 0u);
}

TEST(ServeRegistry, CollisionGuardRejectsWrongStructuralKey) {
  CacheRegistry reg;
  ASSERT_EQ(run_no_memo(kOpDeck, &reg).exit_code, 0);

  // Poison the deck's entry: same fingerprint, wrong structural key --
  // the shape a 64-bit hash collision would take.
  auto parsed = spice::parse_netlist(kOpDeck);
  auto& nl = *parsed.netlist;
  nl.assign_unknowns();
  const std::uint64_t fp = nl.topology_fingerprint();
  serve::StructuralKey wrong{nl.node_count() + 1,
                             static_cast<int>(nl.devices().size()),
                             nl.unknown_count()};
  reg.publish_raw(fp, wrong, nl.solver_cache(), nl.structural_verdict(),
                  true);

  const DeckResult r = run_no_memo(kOpDeck, &reg);
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_FALSE(r.warm);  // guard refused the poisoned entry
  EXPECT_GE(reg.stats().fingerprint_collisions, 1);
}

TEST(ServeRegistry, LruEvictionUnderByteCap) {
  CacheRegistry reg(/*max_bytes=*/1, /*max_result_bytes=*/1u << 20);
  ASSERT_EQ(run_no_memo(kOpDeck, &reg).exit_code, 0);
  ASSERT_EQ(run_no_memo(kLadderDeck, &reg).exit_code, 0);
  const serve::RegistryStats s = reg.stats();
  // A 1-byte cap cannot hold any entry: every publish evicts.
  EXPECT_GE(s.evictions, 2);
  EXPECT_EQ(s.entries, 0u);
  // Eviction never broke a job.
  const DeckResult r = run_no_memo(kOpDeck, &reg);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_FALSE(r.warm);
}

TEST(ServeRegistry, ResultMemoLruEvictionUnderByteCap) {
  // Room for two ~1.4 kB entries: the third evicts the least recently
  // used one, and a hit refreshes an entry's place.
  CacheRegistry reg(/*max_bytes=*/64u << 20, /*max_result_bytes=*/3000);
  auto payload = [](char c) {
    return std::make_shared<const std::string>(std::string(1000, c));
  };
  const std::string a(400, 'a'), b(400, 'b'), c(400, 'c');
  reg.store_result(a, payload('1'));
  reg.store_result(b, payload('2'));
  ASSERT_NE(reg.find_result(a), nullptr);
  reg.store_result(a, payload('x'));  // first result wins
  reg.store_result(c, payload('3'));
  EXPECT_EQ(reg.find_result(b), nullptr);
  ASSERT_NE(reg.find_result(a), nullptr);
  EXPECT_EQ(*reg.find_result(a), std::string(1000, '1'));
  ASSERT_NE(reg.find_result(c), nullptr);
  const serve::RegistryStats s = reg.stats();
  EXPECT_EQ(s.result_evictions, 1);
  EXPECT_EQ(s.result_entries, 2u);
  EXPECT_LE(s.result_bytes, 3000u);
}

TEST(ServeRegistry, ClearDropsEverything) {
  CacheRegistry reg;
  ASSERT_EQ(serve::run_deck(kOpDeck, {}, &reg).exit_code, 0);
  EXPECT_EQ(reg.stats().entries, 1u);
  EXPECT_EQ(reg.stats().result_entries, 1u);
  reg.clear();
  EXPECT_EQ(reg.stats().entries, 0u);
  EXPECT_EQ(reg.stats().result_entries, 0u);
  EXPECT_EQ(reg.stats().bytes, 0u);
}

// -------------------------------------------------------------------
// Deck runner: warm jobs pay zero pattern searches.

TEST(ServeDeck, WarmOpJobZeroPatternSearches) {
  CacheRegistry reg;
  ASSERT_EQ(run_no_memo(kOpDeck, &reg).exit_code, 0);
  const long s0 = num::sparse_search_count();
  const DeckResult warm = run_no_memo(kOpDeck, &reg);
  ASSERT_EQ(warm.exit_code, 0) << warm.err;
  ASSERT_TRUE(warm.warm);
  EXPECT_EQ(num::sparse_search_count() - s0, 0)
      << "warm .op repeat fell back to pattern searches";
}

TEST(ServeDeck, WarmAcJobZeroPatternSearches) {
  CacheRegistry reg;
  ASSERT_EQ(run_no_memo(kAcDeck, &reg).exit_code, 0);
  const long s0 = num::sparse_search_count();
  const DeckResult warm = run_no_memo(kAcDeck, &reg);
  ASSERT_EQ(warm.exit_code, 0) << warm.err;
  ASSERT_TRUE(warm.warm);
  EXPECT_EQ(num::sparse_search_count() - s0, 0)
      << "warm .ac repeat fell back to pattern searches "
         "(AC slot pass not shared through the registry?)";
}

TEST(ServeDeck, WarmJobStillRunsValueDependentLint) {
  // Same topology as kOpDeck (the fingerprint excludes values), but r2
  // carries a NaN value: a cold run refuses to simulate at lint, exit
  // 3.  A warm run adopting the clean priming verdict may skip the
  // structural passes, but must still run the value-dependent ones and
  // refuse with the exact same bytes -- skipping them would stamp NaN
  // into the MNA matrix and "succeed" with garbage.
  constexpr const char* kNanDeck =
      "* divider\n"
      "v1 in 0 dc 1.0\n"
      "r1 in out 1k\n"
      "r2 out 0 nan\n"
      ".op\n"
      ".end\n";
  CacheRegistry fresh;
  const DeckResult cold = run_no_memo(kNanDeck, &fresh);
  EXPECT_EQ(cold.exit_code, 3);
  EXPECT_NE(cold.err.find("non_finite_param"), std::string::npos)
      << cold.err;

  CacheRegistry reg;
  ASSERT_EQ(run_no_memo(kOpDeck, &reg).exit_code, 0);  // clean priming
  const DeckResult warm = run_no_memo(kNanDeck, &reg);
  EXPECT_TRUE(warm.warm);
  EXPECT_EQ(warm.exit_code, 3);
  EXPECT_EQ(warm.out, cold.out);
  EXPECT_EQ(warm.err, cold.err);

  // The refusal must not poison the topology entry: a clean repeat of
  // the priming deck still warms and still succeeds.
  const DeckResult again = run_no_memo(kOpDeck, &reg);
  EXPECT_TRUE(again.warm);
  EXPECT_EQ(again.exit_code, 0) << again.err;
}

// The Table-1 mic-amp between +-1.3 V rails as write_netlist renders
// it, with `directives` before .end.  With `tone` the inputs carry a
// +-1 mV differential 1 kHz sine.
std::string mic_deck(int code, const std::string& directives,
                     bool tone = false) {
  ckt::Netlist nl;
  const auto pm = proc::ProcessModel::cmos12();
  const auto vdd = nl.node("vdd"), vss = nl.node("vss");
  const auto inp = nl.node("inp"), inn = nl.node("inn");
  const auto input = [&](double sign) {
    return (tone ? dev::Waveform::sine(0.0, sign * 1e-3, 1e3)
                 : dev::Waveform::dc(0.0))
        .with_ac(sign * 0.5);
  };
  nl.add<dev::VSource>("Vdd", vdd, ckt::kGround, 1.3);
  nl.add<dev::VSource>("Vss", vss, ckt::kGround, -1.3);
  nl.add<dev::VSource>("Vinp", inp, ckt::kGround, input(1.0));
  nl.add<dev::VSource>("Vinn", inn, ckt::kGround, input(-1.0));
  core::build_mic_amp(nl, pm, {}, vdd, vss, ckt::kGround, inp, inn)
      .set_gain_code(code);
  std::string deck = spice::write_netlist(nl, "mic-amp");
  deck.insert(deck.rfind(".end"), directives);
  return deck;
}

// The ensemble summary's samples/s figure is wall-clock dependent:
// blank it, keep the rest of the line.
std::string strip_rate(std::string s) {
  const std::size_t end = s.find(" samples/s\n");
  if (end == std::string::npos) return s;
  const std::size_t start = s.rfind(", ", end) + 2;
  return s.replace(start, end - start, "#");
}

std::string describe_job(const DeckResult& r) {
  return "exit " + std::to_string(r.exit_code) + "\n--- out\n" +
         strip_timing(r.out) + "--- err\n" + strip_rate(r.err);
}

// The "solved by ... in N iterations" line of a job's op report.
std::string op_iterations_line(const DeckResult& r) {
  const std::size_t at = r.out.find("solved by ");
  if (at == std::string::npos) return {};
  return r.out.substr(at, r.out.find('\n', at) - at);
}

// The registry carries structure, never an operating-point seed: a job
// warmed by an earlier job over the same topology (here another gain
// code, so another operating point) takes the cold job's Newton path.
TEST(ServeRegistry, WarmOpJobTakesTheColdIterationCount) {
  CacheRegistry reg;
  ASSERT_EQ(run_no_memo(mic_deck(5, ".op\n"), &reg).exit_code, 0);
  const DeckResult warm = run_no_memo(mic_deck(3, ".op\n"), &reg);
  const DeckResult cold = run_no_memo(mic_deck(3, ".op\n"), nullptr);
  ASSERT_EQ(warm.exit_code, 0) << warm.err;
  ASSERT_EQ(cold.exit_code, 0) << cold.err;
  EXPECT_TRUE(warm.warm);
  EXPECT_FALSE(op_iterations_line(cold).empty()) << cold.out;
  EXPECT_EQ(op_iterations_line(warm), op_iterations_line(cold));
  EXPECT_EQ(strip_timing(warm.out), strip_timing(cold.out));
}

TEST(ServeDeck, JobBytesMatchGoldens) {
  // Byte-exact job output recorded from the original deck runner: the
  // lint report, op_report (including its value-range section), every
  // directive's CSV and the --mc, --pss, --range and --lint outputs,
  // cold and warm.
  struct Deck {
    std::string name, text;
    DeckOptions opt = {};  // an empty probe_arg probes the default eight
  };
  const auto with = [](auto set) {
    DeckOptions o;
    set(o);
    return o;
  };
  std::vector<Deck> decks;
  const std::filesystem::path root(MSIM_TEST_DIR);
  for (const auto& [dir, tag] :
       {std::pair{root / ".." / "examples" / "netlists", "examples"},
        std::pair{root / "faults", "faults"}}) {
    std::vector<std::filesystem::path> files;
    for (const auto& e : std::filesystem::directory_iterator(dir))
      if (e.path().extension() == ".sp") files.push_back(e.path());
    std::sort(files.begin(), files.end());
    for (const auto& f : files) {
      std::ifstream in(f);
      std::ostringstream ss;
      ss << in.rdbuf();
      decks.push_back({std::string(tag) + "_" + f.stem().string(),
                       ss.str()});
    }
  }
  decks.push_back({"mic_op", mic_deck(2, ".op\n")});
  // A solve at another temperature and a .dc sweep that leaves vdd at
  // its last point both move the value ranges op_report prints.
  decks.push_back({"mic_temp85", mic_deck(4, ".temp 85\n.op\n")});
  decks.push_back(
      {"mic_dc_then_op", mic_deck(0, ".dc v_vdd 1.0 1.6 0.3\n.op\n")});
  // The paper's frequency sweeps: the gain response at two codes (the
  // default probes, then the outputs) and the output/input-referred
  // noise spectrum at a third.
  decks.push_back({"mic_ac", mic_deck(3, ".ac dec 10 10 1e6\n")});
  decks.push_back({"mic_ac_outputs", mic_deck(0, ".ac dec 10 10 1e6\n"),
                   with([](DeckOptions& o) {
                     o.probe_arg = "mic.outp,mic.outn";
                   })});
  decks.push_back(
      {"mic_noise", mic_deck(5, ".noise mic.outp v_vinp dec 10 10 1e6\n")});
  // Multi-directive jobs: an .ac or .noise after the .op it follows,
  // an .op after an .ac, and a .dc between .op and .ac that moves vdd
  // (so the .ac must see the operating point at the swept end).
  decks.push_back(
      {"mic_op_ac", mic_deck(1, ".op\n.ac dec 10 10 1e6\n")});
  decks.push_back({"mic_op_noise",
                   mic_deck(4, ".op\n.noise mic.outp v_vinp dec 10 10 1e6\n")});
  decks.push_back(
      {"mic_ac_op", mic_deck(2, ".ac dec 10 10 1e6\n.op\n")});
  decks.push_back(
      {"mic_op_dc_ac",
       mic_deck(3, ".op\n.dc v_vdd 1.0 1.6 0.3\n.ac dec 10 10 1e6\n")});
  // Transient rows: the RC step, and the mic amp on a 1 kHz tone, as a
  // plain transient, as a 4-lane lockstep ensemble, and as a shooting
  // PSS.
  decks.push_back({"rc_tran", kTranDeck});
  decks.push_back(
      {"rc_tran_ensemble", kTranDeck,
       with([](DeckOptions& o) { o.ensemble = 4; })});
  decks.push_back({"mic_tran_sine", mic_deck(2, ".tran 20u 1m\n", true),
                   with([](DeckOptions& o) {
                     o.probe_arg = "inp,inn,mic.outp,mic.outn";
                   })});
  decks.push_back({"mic_pss_sine", mic_deck(2, ".tran 20u 1m\n", true),
                   with([](DeckOptions& o) {
                     o.probe_arg = "inp,inn,mic.outp,mic.outn";
                     o.pss = true;
                   })});
  // The Monte-Carlo summary, the value-range JSON and the lint JSON.
  decks.push_back({"divider_mc", kOpDeck, with([](DeckOptions& o) {
                     o.mc = 8;
                     o.mc_seed = 7;
                     o.probe_arg = "out";
                   })});
  decks.push_back({"mic_range_json", mic_deck(2, ".op\n"),
                   with([](DeckOptions& o) { o.range_json = true; })});
  // Row magnitudes 1e4 S against 1e-9 S: the conditioning warning.
  const std::string ill_conditioned =
      "* ill-conditioned\nv1 a 0 dc 1\nr1 a b 0.1m\nr2 b c 1e9\n"
      "r3 c 0 1e9\n.op\n.end\n";
  decks.push_back({"ill_conditioned_lint_json", ill_conditioned,
                   with([](DeckOptions& o) { o.lint_json = true; })});
  decks.push_back({"ill_conditioned_range_json", ill_conditioned,
                   with([](DeckOptions& o) { o.range_json = true; })});
  for (const char* fault : {"dead_device", "rail_violation"}) {
    std::ifstream in(root / "faults" / (std::string(fault) + ".sp"));
    std::ostringstream ss;
    ss << in.rdbuf();
    decks.push_back({std::string("faults_") + fault + "_range_json",
                     ss.str(),
                     with([](DeckOptions& o) { o.range_json = true; })});
    decks.push_back({std::string("faults_") + fault + "_lint_json",
                     ss.str(),
                     with([](DeckOptions& o) { o.lint_json = true; })});
  }
  for (auto& [name, deck, opt] : decks) {
    opt.telemetry = false;
    const DeckResult cold = run_no_memo(deck, nullptr, opt);
    msim::golden::expect("serve/" + name + ".txt", describe_job(cold));
    CacheRegistry reg;
    run_no_memo(deck, &reg, opt);
    const DeckResult warm = run_no_memo(deck, &reg, opt);
    EXPECT_EQ(describe_job(warm), describe_job(cold)) << name;
  }
}

// The one JSON document a job printed (the stdout line that opens with
// '{'): it parses, and dump(parse(x)) == x, since run_deck prints
// Json::dump's bytes.
Json job_json(const DeckResult& r) {
  std::vector<std::string> docs;
  std::istringstream in(r.out);
  for (std::string line; std::getline(in, line);)
    if (line.rfind('{', 0) == 0) docs.push_back(line);
  EXPECT_EQ(docs.size(), 1u) << r.out;
  if (docs.size() != 1) return Json();
  std::string err;
  const Json j = Json::parse(docs[0], &err);
  EXPECT_TRUE(j.is_object()) << err << ": " << docs[0];
  EXPECT_EQ(j.dump(), docs[0]);
  return j;
}

// --lint and --range on every fault deck and the mic amp: each prints
// one well-formed document, the lint counts agree with its issue list
// and the exit code, and the zero-ohm resistor's infinite conditioning
// forecast is null.
TEST(ServeDeck, LintAndRangeDocumentsRoundTrip) {
  std::vector<std::pair<std::string, std::string>> decks = {
      {"mic", mic_deck(2, ".op\n")}};
  const std::filesystem::path faults =
      std::filesystem::path(MSIM_TEST_DIR) / "faults";
  for (const auto& e : std::filesystem::directory_iterator(faults)) {
    std::ifstream in(e.path());
    std::ostringstream ss;
    ss << in.rdbuf();
    decks.emplace_back(e.path().stem().string(), ss.str());
  }
  ASSERT_GE(decks.size(), 11u);
  for (const auto& [name, deck] : decks) {
    DeckOptions lint;
    lint.lint_json = true;
    const DeckResult lr = run_no_memo(deck, nullptr, lint);
    const Json l = job_json(lr);
    const double errors = l["errors"].as_number(-1);
    const double warnings = l["warnings"].as_number(-1);
    EXPECT_EQ(errors + warnings,
              static_cast<double>(l["issues"].items().size()))
        << name;
    for (const Json& i : l["issues"].items()) {
      EXPECT_FALSE(i["kind"].as_string().empty()) << name;
      EXPECT_TRUE(i["line"].is_number()) << name;
    }
    EXPECT_EQ(lr.exit_code, errors > 0 ? 3 : warnings > 0 ? 1 : 0) << name;

    DeckOptions range;
    range.range_json = true;
    const Json r = job_json(run_no_memo(deck, nullptr, range));
    EXPECT_TRUE(r["supply"]["nodes"].is_array()) << name;
    EXPECT_TRUE(r["conditioning"]["available"].is_bool()) << name;
    for (const Json& c : r["currents"].items())
      EXPECT_TRUE(c["lo"].is_number() && c["hi"].is_number()) << name;
    if (name == "nan_resistor")
      EXPECT_TRUE(r["conditioning"]["forecast"].is_null()) << r.dump();
    else
      EXPECT_TRUE(r["conditioning"]["forecast"].is_number()) << name;
  }
}

// --tran-stats after a .tran, a 4-lane lockstep ensemble and a --pss
// run.  The ensemble's document and summary describe the whole run:
// four identical lanes take four times one run's steps, and the
// lockstep blocks' factorizations, which no lane carries, are counted.
TEST(ServeDeck, TranStatsDocumentsDescribeTheWholeRun) {
  DeckOptions o;
  o.tran_stats = true;
  const DeckResult single = run_no_memo(kTranDeck, nullptr, o);
  ASSERT_EQ(single.exit_code, 0) << single.err;
  const Json one = job_json(single);
  EXPECT_GT(one["factor_count"].as_number(), 0);
  EXPECT_GT(one["accepted_steps"].as_number(), 0);
  EXPECT_TRUE(one["refactor_reasons"].is_object());
  EXPECT_EQ(one["budget_stop"].as_string(), "");

  o.ensemble = 4;
  const DeckResult ens = run_no_memo(kTranDeck, nullptr, o);
  ASSERT_EQ(ens.exit_code, 0) << ens.err;
  ASSERT_NE(ens.err.find("lockstep"), std::string::npos) << ens.err;
  const Json four = job_json(ens);
  EXPECT_EQ(four["accepted_steps"].as_number(),
            4 * one["accepted_steps"].as_number());
  EXPECT_GE(four["newton_iterations"].as_number(),
            four["accepted_steps"].as_number());
  const double factors = four["factor_count"].as_number();
  EXPECT_GT(factors, 0);
  EXPECT_NE(ens.err.find("  factorizations       " +
                         std::to_string(static_cast<long>(factors)) + " "),
            std::string::npos)
      << ens.err;

  o.ensemble = 1;
  o.pss = true;
  const DeckResult pss =
      run_no_memo(mic_deck(2, ".tran 20u 1m\n", true), nullptr, o);
  ASSERT_EQ(pss.exit_code, 0) << pss.err;
  const Json p = job_json(pss);
  EXPECT_GT(p["periods_integrated"].as_number(), 0);
  EXPECT_GT(p["unknowns"].as_number(), 0);
  EXPECT_TRUE(p["residual"].is_number());
  EXPECT_TRUE(p["phi_ms"].is_number());
}

TEST(ServeDeck, ColdJobLintsAndSolvesOnce) {
  // A clean cold .op + .ac job: run_deck's own full lint stands in for
  // the preflights inside the job, so none re-runs the passes, and the
  // .ac reuses the .op's operating point, so the job factors once per
  // Newton iteration and once per AC point.
  const std::string deck = mic_deck(2, ".op\n.ac dec 10 10 1e6\n");
  auto parsed = spice::parse_netlist(deck);
  an::OpOptions oo;
  oo.temp_k = num::celsius_to_kelvin(parsed.temp_c);
  const auto op = an::solve_op(*parsed.netlist, oo);
  ASSERT_TRUE(op.converged);
  const long ac_points =
      static_cast<long>(an::log_frequencies(10.0, 1e6, 10).size());

  const long runs = an::preflight_full_runs();
  const long factors = an::factor_call_count();
  const DeckResult r = run_no_memo(deck, nullptr);
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_EQ(an::preflight_full_runs(), runs);
  EXPECT_EQ(an::factor_call_count() - factors, op.iterations + ac_points);
}

TEST(ServeDeck, VerdictRecordedOnlyForACleanFullLint) {
  // A deck whose lint warns still simulates, but records no verdict:
  // its solve runs the preflight lint itself.
  std::ifstream in(std::string(MSIM_TEST_DIR) +
                   "/faults/dangling_terminal.sp");
  std::ostringstream warn;
  warn << in.rdbuf();
  long runs = an::preflight_full_runs();
  DeckResult r = run_no_memo(warn.str(), nullptr);
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.err.find("dangling"), std::string::npos) << r.err;
  EXPECT_EQ(an::preflight_full_runs(), runs + 1);

  // So does a clean deck linted with a pass disabled.
  DeckOptions opt;
  opt.lint_disable = {"dangling_terminal"};
  runs = an::preflight_full_runs();
  r = run_no_memo(kOpDeck, nullptr, opt);
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_EQ(an::preflight_full_runs(), runs + 1);
}

TEST(ServeDeck, DcSweepAsFirstSolveIsLintedAtItsPoints) {
  // The deck lints clean at vb = 1 V, but the sweep, the job's first
  // solve, drives nb above the 2.6 V supply.  The deck lint's verdict
  // does not stand in for the preflights of the swept points: each one
  // is refused, as when no deck lint ran before it.
  constexpr const char* kRailSweep =
      "* sweep into a rail violation\n"
      "vdd vdd 0 dc 2.6\n"
      "vb nb 0 dc 1.0\n"
      "r1 vdd a 10k\n"
      "r2 a 0 10k\n"
      "r3 nb a 100k\n"
      ".dc vb 3.0 3.4 0.2\n"
      ".end\n";
  const DeckResult r = run_no_memo(kRailSweep, nullptr);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  for (const char* v : {"3", "3.2", "3.4"})
    EXPECT_NE(r.err.find(std::string("sweep point ") + v +
                         " failed: bad_topology [stage lint]"),
              std::string::npos)
        << r.err;
}

TEST(ServeDeck, NoiseRejectsUnknownNodeOrSource) {
  auto noise_deck = [](const char* noise) {
    return std::string(
               "* rc low-pass noise\n"
               "v1 in 0 dc 0 ac 1\n"
               "r1 in out 1k\n"
               "c1 out 0 100n\n") +
           noise + ".end\n";
  };
  DeckResult r =
      run_no_memo(noise_deck(".noise nosuch v1 dec 2 10 1e3\n"), nullptr);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("error: node not found: nosuch"), std::string::npos)
      << r.err;
  EXPECT_EQ(r.out.find("onoise"), std::string::npos) << r.out;

  r = run_no_memo(noise_deck(".noise out vnope dec 2 10 1e3\n"), nullptr);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("error: source not found: vnope"), std::string::npos)
      << r.err;

  r = run_no_memo(noise_deck(".noise out v1 dec 2 10 1e3\n"), nullptr);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("onoise_V2_per_Hz"), std::string::npos) << r.out;
}

TEST(ServeDeck, DcSweepRejectsDegenerateSteps) {
  auto divider_dc = [](const char* sweep) {
    return std::string(
               "* divider sweep\n"
               "v1 in 0 dc 1.0\n"
               "r1 in out 1k\n"
               "r2 out 0 1k\n") +
           sweep + ".end\n";
  };
  // A zero, non-finite or wrong-direction step would loop forever
  // (unbounded allocation a cancel/budget check never reaches); the
  // runner must reject it up front.
  for (const char* bad : {".dc v1 0 1 0\n", ".dc v1 0 1 -0.5\n",
                          ".dc v1 1 0 0.5\n", ".dc v1 0 inf 1\n",
                          ".dc v1 0 1 nan\n"}) {
    const DeckResult r = serve::run_deck(divider_dc(bad), {}, nullptr);
    EXPECT_EQ(r.exit_code, 1) << bad;
    EXPECT_NE(r.err.find("error:"), std::string::npos) << bad << r.err;
  }
  // A sweep past the point cap is refused rather than OOM-killed.
  const DeckResult huge =
      serve::run_deck(divider_dc(".dc v1 0 1 1e-9\n"), {}, nullptr);
  EXPECT_EQ(huge.exit_code, 1);
  EXPECT_NE(huge.err.find("exceeds"), std::string::npos) << huge.err;
  // And a well-formed sweep still runs.
  const DeckResult ok =
      serve::run_deck(divider_dc(".dc v1 0 1 0.25\n"), {}, nullptr);
  EXPECT_EQ(ok.exit_code, 0) << ok.err;
  EXPECT_NE(ok.out.find("v_sweep"), std::string::npos);
  EXPECT_NE(ok.out.find("\n1,"), std::string::npos);  // reached stop
}

TEST(ServeDeck, AcNoiseTranRejectDegenerateArguments) {
  auto rc = [](const std::string& directive) {
    return "* rc\nv1 in 0 dc 0 ac 1 sin(0 1 1k)\nr1 in out 1k\n"
           "c1 out 0 100n\n" +
           directive + "\n.end\n";
  };
  // A frequency at or below zero logs to nan rows; a non-integer or
  // out-of-range points-per-decade overflows the grid's int count; lin
  // and oct used to run as dec; a zero or negative step never reaches
  // the stop time (allocation until the process dies); a non-finite or
  // non-positive stop printed a bare header.  Each is refused before
  // the grid or the time loop: exit 1, an error line, no rows.
  std::vector<std::string> bad;
  for (const char* grid :
       {"dec 10 0 1e6", "dec 10 -5 1e6", "dec nan 10 1e6", "dec 0 10 1e6",
        "dec 1e10 10 1e6", "dec 2.5 10 1e6", "dec 10 1e6 10",
        "dec 10 10 inf", "dec 10 nan 1e6", "lin 5 10 1e3", "oct 5 10 1e3",
        "dec 1e6 1 1e6"}) {
    bad.push_back(std::string(".ac ") + grid);
    bad.push_back(std::string(".noise out v1 ") + grid);
  }
  for (const char* tran :
       {".tran 0 1m", ".tran -1u 1m", ".tran nan 1m", ".tran 1u nan",
        ".tran 1u -1m", ".tran 1u 0", ".tran inf 1m", ".tran 1p 1"})
    bad.push_back(tran);
  auto expect_refused = [](const std::string& deck, const DeckOptions& opt,
                           const std::string& what) {
    const DeckResult r = run_no_memo(deck, nullptr, opt);
    EXPECT_EQ(r.exit_code, 1) << what;
    EXPECT_EQ(r.err.rfind("error: ", 0), 0u) << what << "\n" << r.err;
    // Only the directive's own "* .ac ..." echo line, no header or row.
    EXPECT_EQ(r.out.rfind("* ", 0), 0u) << what;
    EXPECT_EQ(r.out.find('\n'), r.out.size() - 1) << what << r.out;
  };
  for (const bool pss : {false, true}) {
    DeckOptions opt;
    opt.pss = pss;
    for (const auto& directive : bad) {
      if (pss && directive.rfind(".tran", 0) != 0) continue;
      expect_refused(rc(directive), opt, directive);
    }
  }
  // --pss integrates whole tone periods whatever the .tran stop says: a
  // 1 uHz tone at a 1 us step is 1e12 steps a period, which wrapped the
  // step count negative and never finished.
  DeckOptions pss;
  pss.pss = true;
  expect_refused(
      "* slow tone\nv1 in 0 sin(0 1 1e-6)\nr1 in out 1k\nc1 out 0 100n\n"
      ".tran 1u 1m\n.end\n",
      pss, "1 uHz tone");
  // The well-formed grids and steps still run.
  for (const char* ok : {".ac dec 10 10 10", ".ac dec 3 10 1e3",
                         ".noise out v1 dec 3 10 1e3", ".tran 1u 20u"}) {
    const DeckResult r = run_no_memo(rc(ok), nullptr);
    EXPECT_EQ(r.exit_code, 0) << ok << r.err;
    EXPECT_GT(std::count(r.out.begin(), r.out.end(), '\n'), 2) << ok;
  }
  // Equal endpoints are one frequency: the echo, the header and exactly
  // one data row.
  const DeckResult one = run_no_memo(rc(".ac dec 10 10 10"), nullptr);
  ASSERT_EQ(one.exit_code, 0) << one.err;
  EXPECT_EQ(std::count(one.out.begin(), one.out.end(), '\n'), 3) << one.out;
  EXPECT_NE(one.out.find("\n10,"), std::string::npos) << one.out;
}

// -------------------------------------------------------------------
// Deck runner: whole-result memoization.

TEST(ServeDeck, ResultMemoReturnsVerbatimBytes) {
  CacheRegistry reg;
  const DeckResult first = serve::run_deck(kAcDeck, {}, &reg);
  ASSERT_EQ(first.exit_code, 0) << first.err;
  EXPECT_FALSE(first.result_cached);

  const DeckResult repeat = serve::run_deck(kAcDeck, {}, &reg);
  EXPECT_TRUE(repeat.result_cached);
  // Verbatim: including the timing line -- no solve ran at all.
  EXPECT_EQ(repeat.out, first.out);
  EXPECT_EQ(repeat.err, first.err);
  EXPECT_EQ(repeat.exit_code, 0);

  // Different options -> different memo key.
  DeckOptions probed;
  probed.probe_arg = "out";
  const DeckResult other = serve::run_deck(kAcDeck, probed, &reg);
  EXPECT_FALSE(other.result_cached);
  EXPECT_NE(other.out, first.out);
}

TEST(ServeDeck, BudgetedJobsNeverMemoized) {
  CacheRegistry reg;
  DeckOptions opt;
  opt.budget_ms = 10000.0;  // armed but far from firing
  const DeckResult a = serve::run_deck(kOpDeck, opt, &reg);
  ASSERT_EQ(a.exit_code, 0);
  const DeckResult b = serve::run_deck(kOpDeck, opt, &reg);
  EXPECT_FALSE(b.result_cached);
  EXPECT_EQ(reg.stats().result_entries, 0u);
}

TEST(ServeDeck, CancelledJobFailsAndIsNeverMemoized) {
  core::CancelToken token;
  token.request();  // cancelled before the run starts
  core::RunBudget budget;
  budget.cancel = &token;
  DeckOptions opt;
  opt.budget = &budget;
  CacheRegistry reg;
  // A cancel that fires before the first timestep kills the initial DC
  // solve: the engine reports a failed (not truncated) run, exit 1.  A
  // cancel mid-waveform truncates with exit 4; either way the result
  // must stay out of the memo.
  const DeckResult r = serve::run_deck(kTranDeck, opt, &reg);
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.err.find("transient failed"), std::string::npos) << r.err;
  EXPECT_EQ(reg.stats().result_entries, 0u);
}

// -------------------------------------------------------------------
// Deck runner: Monte-Carlo mode.

TEST(ServeDeck, MonteCarloDeterministicAcrossRepeats) {
  DeckOptions opt;
  opt.mc = 8;
  opt.mc_seed = 7;
  opt.probe_arg = "out";
  const DeckResult a = serve::run_deck(kOpDeck, opt, nullptr);
  ASSERT_EQ(a.exit_code, 0) << a.err;
  EXPECT_NE(a.out.find("mc,8 samples,0 failures"), std::string::npos)
      << a.out;
  EXPECT_NE(a.out.find("probe,mean,stddev,min,max"), std::string::npos);

  const DeckResult b = serve::run_deck(kOpDeck, opt, nullptr);
  EXPECT_EQ(b.out, a.out);  // same seed -> bit-identical statistics

  opt.mc_seed = 8;
  const DeckResult c = serve::run_deck(kOpDeck, opt, nullptr);
  EXPECT_NE(c.out, a.out);  // different seed -> different spread
}

TEST(ServeDeck, MonteCarloAdoptsRegistryStructure) {
  CacheRegistry reg;
  // Prime the topology with a plain .op job, then run MC over the same
  // deck: sample 0's build adopts the registry structure (MC
  // perturbations move values, never topology).
  ASSERT_EQ(run_no_memo(kOpDeck, &reg).exit_code, 0);
  DeckOptions opt;
  opt.mc = 4;
  opt.probe_arg = "out";
  const DeckResult mc = run_no_memo(kOpDeck, &reg, opt);
  ASSERT_EQ(mc.exit_code, 0) << mc.err;
  EXPECT_TRUE(mc.warm);
  // Registry-warm and registry-cold MC produce the same statistics:
  // adoption changes where the structure comes from, not the values.
  const DeckResult cold = run_no_memo(kOpDeck, nullptr, opt);
  EXPECT_EQ(cold.out, mc.out);
}

// -------------------------------------------------------------------
// Batch mode.

TEST(ServeBatch, SharedRegistryWarmsRepeats) {
  const std::string dir = ::testing::TempDir();
  const std::string p1 = dir + "serve_batch_a.sp";
  const std::string p2 = dir + "serve_batch_b.sp";
  { std::ofstream(p1) << kOpDeck; }
  { std::ofstream(p2) << kLadderDeck; }

  serve::CacheRegistry reg;
  DeckOptions opt;
  opt.use_result_cache = false;  // measure structural warmth, not memo
  std::string out, err;
  const serve::BatchResult b =
      serve::run_batch({p1, p2, p1, p2, p1}, opt, reg, out, err);
  EXPECT_EQ(b.exit_code, 0) << err;
  EXPECT_EQ(b.jobs, 5);
  EXPECT_EQ(b.warm_jobs, 3);  // 2 topologies cold once each
  EXPECT_EQ(b.cached_jobs, 0);
  EXPECT_NE(out.find("* job 0: " + p1), std::string::npos);

  // Unreadable file: exit 2, other jobs unaffected.
  std::string out2, err2;
  const serve::BatchResult bad = serve::run_batch(
      {p1, dir + "missing_deck.sp"}, opt, reg, out2, err2);
  EXPECT_EQ(bad.exit_code, 2);
  EXPECT_EQ(bad.jobs, 1);
  EXPECT_NE(err2.find("cannot read"), std::string::npos);
}

// -------------------------------------------------------------------
// Scheduler.

TEST(ServeScheduler, ExecutesEverythingAndDrains) {
  serve::JobScheduler sched(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i)
    sched.submit([&] { done.fetch_add(1); });
  sched.wait_idle();
  EXPECT_EQ(done.load(), 64);
  const serve::SchedulerStats st = sched.stats();
  EXPECT_EQ(st.submitted, 64);
  EXPECT_EQ(st.executed, 64);
  EXPECT_EQ(st.workers, 4u);
  sched.stop();
}

TEST(ServeScheduler, StealingSpreadsOneHotQueue) {
  // Round-robin submit fills all queues, but jobs that block until the
  // gate opens force idle workers to steal the stragglers.
  serve::JobScheduler sched(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i)
    sched.submit([&] { done.fetch_add(1); });
  sched.wait_idle();
  sched.stop();
  EXPECT_EQ(done.load(), 32);
}

TEST(ServeScheduler, BitIdenticalResultsAtAnyWorkerCount) {
  const std::vector<std::string> decks = {kOpDeck, kAcDeck, kLadderDeck,
                                          kOpDeck, kAcDeck, kLadderDeck};
  // Serial baseline, fresh registry.
  std::vector<std::string> serial(decks.size());
  {
    CacheRegistry reg;
    for (std::size_t i = 0; i < decks.size(); ++i)
      serial[i] = strip_timing(run_no_memo(decks[i], &reg).out);
  }
  for (const std::size_t workers : {1u, 2u, 8u}) {
    CacheRegistry reg;
    serve::JobScheduler sched(workers);
    std::vector<std::string> outs(decks.size());
    for (std::size_t i = 0; i < decks.size(); ++i)
      sched.submit([&, i] {
        outs[i] = strip_timing(run_no_memo(decks[i], &reg).out);
      });
    sched.wait_idle();
    sched.stop();
    for (std::size_t i = 0; i < decks.size(); ++i)
      EXPECT_EQ(outs[i], serial[i])
          << "deck " << i << " differs at " << workers << " workers";
  }
}

// -------------------------------------------------------------------
// Concurrent adoption/eviction stress (the TSan gate).

TEST(ServeStress, ConcurrentAdoptPublishEvictClear) {
  const std::vector<std::string> decks = {kOpDeck, kAcDeck, kLadderDeck};
  // Serial per-deck baseline.
  std::vector<std::string> baseline;
  {
    CacheRegistry reg;
    for (const auto& d : decks)
      baseline.push_back(strip_timing(run_no_memo(d, &reg).out));
  }
  CacheRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kRepeats = 6;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRepeats; ++r) {
        const std::size_t which =
            static_cast<std::size_t>(t + r) % decks.size();
        const DeckResult res = run_no_memo(decks[which], &reg);
        if (res.exit_code != 0 ||
            strip_timing(res.out) != baseline[which])
          mismatches.fetch_add(1);
      }
    });
  // Concurrent churn: clearing mid-flight exercises eviction while
  // adopters hold shared_ptrs into the evicted entries.
  threads.emplace_back([&] {
    for (int i = 0; i < 10; ++i) {
      reg.clear();
      std::this_thread::yield();
    }
  });
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Every job either adopted or missed; nothing else.
  const serve::RegistryStats s = reg.stats();
  EXPECT_EQ(s.hits + s.misses, kThreads * kRepeats);
  EXPECT_EQ(s.fingerprint_collisions, 0);
}

// -------------------------------------------------------------------
// Daemon end to end (the serve_smoke ctest runs exactly this fixture).

bool connect_to(int fd, const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  return ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
}

// A raw client connection to the daemon's socket; -1 on failure.
int connect_client(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd >= 0 && !connect_to(fd, path)) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& data) {
  for (std::size_t off = 0; off < data.size();) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, 0);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// One reply line (without its newline); empty on EOF or receive timeout.
std::string read_line(int fd) {
  std::string line;
  char c;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') line += c;
  return line;
}

// A ping that gives up after 5 s instead of hanging on a deaf daemon.
bool ping_answered(const std::string& path) {
  const int fd = connect_client(path);
  if (fd < 0) return false;
  const timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  const bool ok = send_all(fd, "{\"op\":\"ping\"}\n") &&
                  Json::parse(read_line(fd))["ok"].as_bool(false);
  ::close(fd);
  return ok;
}

// The daemon's live connection gauge once it reads `want` (stale stats
// connections from earlier polls are closed asynchronously).
double wait_for_connections(const std::string& path, double want) {
  Json statreq = Json::object();
  statreq.set("op", "stats");
  double conns = -1;
  for (int i = 0; i < 500 && conns != want; ++i) {
    std::string err;
    conns = serve::request(path, statreq, &err)["connections"].as_number(-1);
    if (conns != want)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return conns;
}

std::size_t thread_count() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(std::distance(begin(tasks), end(tasks)));
}

int highest_fd() {
  int top = -1;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/fd"))
    top = std::max(top, std::stoi(e.path().filename().string()));
  return top;
}

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

TEST(ServeSmoke, MixedJobsWarmHitsAndCleanShutdown) {
  serve::ServerOptions so;
  so.socket_path =
      ::testing::TempDir() + "msim_serve_" + std::to_string(::getpid()) +
      ".sock";
  so.workers = 2;
  serve::Server server(so);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  std::thread runner([&] { server.run(); });

  auto submit = [&](const char* deck, bool memo) {
    Json j = Json::object();
    j.set("op", "submit");
    j.set("deck", deck);
    j.set("result_cache", memo);
    std::string out, errs, terr;
    bool warm = false, cached = false;
    const int code = serve::submit_and_wait(so.socket_path, j, out, errs,
                                            &terr, &warm, &cached);
    EXPECT_EQ(code, 0) << terr << errs;
    return std::tuple<std::string, bool, bool>(std::move(out), warm,
                                               cached);
  };

  // Three mixed jobs: op (cold), ac (cold), op repeat (warm structure,
  // memo off so the solve really runs).
  const auto [op1, w1, c1] = submit(kOpDeck, false);
  const auto [ac1, w2, c2] = submit(kAcDeck, false);
  const auto [op2, w3, c3] = submit(kOpDeck, false);
  EXPECT_FALSE(w1);
  EXPECT_FALSE(w2);
  EXPECT_TRUE(w3);
  EXPECT_EQ(strip_timing(op2), strip_timing(op1));

  // And a memoized repeat: verbatim bytes, no solve.
  const auto [ac2a, w4, c4] = submit(kAcDeck, true);
  const auto [ac2b, w5, c5] = submit(kAcDeck, true);
  EXPECT_TRUE(c5);
  EXPECT_EQ(ac2b, ac2a);

  // Unknown-id cancel answers found:false (deterministic; an in-flight
  // cancel race is exercised by CancelledJobTruncatesWithExit4).
  Json cancel = Json::object();
  cancel.set("op", "cancel");
  cancel.set("id", "no-such-job");
  const Json cr = serve::request(so.socket_path, cancel, &err);
  EXPECT_TRUE(cr["ok"].as_bool()) << err;
  EXPECT_FALSE(cr["found"].as_bool(true));

  Json statreq = Json::object();
  statreq.set("op", "stats");
  const Json stats = serve::request(so.socket_path, statreq, &err);
  ASSERT_TRUE(stats["ok"].as_bool()) << err;
  EXPECT_GT(stats["registry"]["hits"].as_number(), 0.0);
  EXPECT_EQ(stats["jobs"]["completed"].as_number(), 5.0);
  EXPECT_GT(stats["jobs"]["warm"].as_number(), 0.0);
  EXPECT_GT(stats["jobs"]["cached"].as_number(), 0.0);
  EXPECT_EQ(stats["registry"]["fingerprint_collisions"].as_number(), 0.0);

  Json bye = Json::object();
  bye.set("op", "shutdown");
  const Json ack = serve::request(so.socket_path, bye, &err);
  EXPECT_TRUE(ack["ok"].as_bool()) << err;
  runner.join();
  // Socket unlinked on shutdown.
  EXPECT_NE(::access(so.socket_path.c_str(), F_OK), 0);
}

TEST(ServeSmoke, DuplicateIdsRejectedAndConnectionsReaped) {
  serve::ServerOptions so;
  so.socket_path = ::testing::TempDir() + "msim_serve_dup_" +
                   std::to_string(::getpid()) + ".sock";
  so.workers = 1;
  serve::Server server(so);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  std::thread runner([&] { server.run(); });

  // A slow job under id "dup": 5000-sample MC keeps it in flight long
  // past the next round-trip.  The submitting connection closes right
  // after the ack, so the job's result line lands on a reaped
  // connection and must be dropped cleanly.
  Json slow = Json::object();
  slow.set("op", "submit");
  slow.set("deck", kOpDeck);
  slow.set("id", "dup");
  slow.set("mc", 5000);
  slow.set("probe", "out");
  slow.set("result_cache", false);
  const Json a1 = serve::request(so.socket_path, slow, &err);
  ASSERT_TRUE(a1["ok"].as_bool(false)) << err;

  // Same id while the first job is live: rejected, not shadowed.
  Json dup = Json::object();
  dup.set("op", "submit");
  dup.set("deck", kOpDeck);
  dup.set("id", "dup");
  dup.set("result_cache", false);
  const Json a2 = serve::request(so.socket_path, dup, &err);
  EXPECT_FALSE(a2["ok"].as_bool(true)) << a2.dump();
  EXPECT_NE(a2["error"].as_string().find("already in flight"),
            std::string::npos)
      << a2.dump();

  // Disconnected clients are closed by the I/O loop at once, so the
  // live gauge drains to just the stats connection itself once the MC
  // job finishes.
  Json statreq = Json::object();
  statreq.set("op", "stats");
  double conns = 1e9, completed = 0;
  for (int i = 0; i < 500; ++i) {
    const Json s = serve::request(so.socket_path, statreq, &err);
    ASSERT_TRUE(s["ok"].as_bool(false)) << err;
    conns = s["connections"].as_number(1e9);
    completed = s["jobs"]["completed"].as_number(0);
    if (conns <= 1.0 && completed >= 1.0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(conns, 1.0);
  EXPECT_EQ(completed, 1.0);  // the rejected duplicate never ran

  server.shutdown();
  runner.join();
}

TEST(ServeSmoke, MalformedAndUnknownRequestsAnswerErrors) {
  serve::ServerOptions so;
  so.socket_path = ::testing::TempDir() + "msim_serve_err_" +
                   std::to_string(::getpid()) + ".sock";
  so.workers = 1;
  serve::Server server(so);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  std::thread runner([&] { server.run(); });

  Json bogus = Json::object();
  bogus.set("op", "frobnicate");
  const Json r1 = serve::request(so.socket_path, bogus, &err);
  EXPECT_FALSE(r1["ok"].as_bool(true));
  EXPECT_NE(r1["error"].as_string().find("unknown op"), std::string::npos);

  Json nodeck = Json::object();
  nodeck.set("op", "submit");
  const Json r2 = serve::request(so.socket_path, nodeck, &err);
  EXPECT_FALSE(r2["ok"].as_bool(true));

  // Sample counts and the seed are checked before any cast: a NaN, an
  // infinity, a fraction, a negative or an over-limit value is a submit
  // error naming the field, and no job is queued.
  Json sub = Json::object();
  sub.set("op", "submit");
  sub.set("deck", kOpDeck);
  std::string head = sub.dump();
  head.pop_back();  // the closing brace; each case appends its field
  const int bfd = connect_client(so.socket_path);
  ASSERT_GE(bfd, 0);
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"mc", "-nan"}, {"mc", "-1"}, {"mc", "2.5"}, {"mc", "1e999"},
           {"mc", "10001"}, {"mc", "-inf"}, {"ensemble", "-nan"},
           {"ensemble", "-3"}, {"ensemble", "0.5"}, {"ensemble", "1e12"},
           {"mc_seed", "-1"}, {"mc_seed", "1.5"}, {"mc_seed", "1e300"}}) {
    const std::string line = head + ",\"" + key + "\":" + value + "}";
    ASSERT_TRUE(send_all(bfd, line + "\n"));
    const std::string got = read_line(bfd);
    const Json rb = Json::parse(got, &err);
    EXPECT_EQ(rb["op"].as_string(), "submit") << line << " -> " << got;
    EXPECT_FALSE(rb["ok"].as_bool(true)) << line << " -> " << got;
    EXPECT_EQ(rb["error"].as_string().rfind(key + " must be an integer", 0),
              0u)
        << line << " -> " << got;
  }
  ::close(bfd);
  Json jobstats = Json::object();
  jobstats.set("op", "stats");
  const Json st = serve::request(so.socket_path, jobstats, &err);
  EXPECT_EQ(st["jobs"]["submitted"].as_number(-1), 0.0) << st.dump();

  // A line of 100 000 '[' and a line over the 1 MiB cap each get an
  // error reply on the same connection (the over-cap bytes are dropped
  // up to the newline), that connection still answers a ping, and the
  // daemon keeps serving.
  const int fd = connect_client(so.socket_path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, std::string(100000, '[') + "\n"));
  const std::string line = read_line(fd);
  const Json r3 = Json::parse(line, &err);
  EXPECT_FALSE(r3["ok"].as_bool(true)) << line;
  EXPECT_EQ(r3["error"].as_string(), "nesting too deep");

  Json ping = Json::object();
  ping.set("op", "ping");
  ASSERT_TRUE(send_all(fd, std::string((std::size_t{1} << 20) + 4096, 'x') +
                               "\n" + ping.dump() + "\n"));
  const std::string l5 = read_line(fd);
  const Json r5 = Json::parse(l5, &err);
  EXPECT_FALSE(r5["ok"].as_bool(true)) << l5;
  EXPECT_NE(r5["error"].as_string().find("longer than"), std::string::npos)
      << l5;
  const std::string l6 = read_line(fd);
  EXPECT_EQ(Json::parse(l6, &err)["op"].as_string(), "ping") << l6;
  ::close(fd);

  const Json r4 = serve::request(so.socket_path, ping, &err);
  EXPECT_TRUE(r4["ok"].as_bool(false)) << err;

  server.shutdown();
  runner.join();
}

// One I/O thread serves every connection: an idle client costs the
// daemon a descriptor, not a thread (a thread per connection let a
// client exhaust the address space and abort the process).
TEST(ServeSmoke, IdleConnectionsCostNoThreads) {
  constexpr int kIdle = 256;
  rlimit rl{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &rl), 0);
  if (rl.rlim_cur < 1024 && rl.rlim_max >= 1024) {  // both ends of 256
    rl.rlim_cur = 1024;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &rl), 0);
  }
  serve::ServerOptions so;
  so.socket_path = ::testing::TempDir() + "msim_serve_idle_" +
                   std::to_string(::getpid()) + ".sock";
  so.workers = 1;
  serve::Server server(so);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  std::thread runner([&] { server.run(); });
  ASSERT_TRUE(ping_answered(so.socket_path));
  EXPECT_EQ(wait_for_connections(so.socket_path, 1.0), 1.0);
  const std::size_t threads = thread_count();

  std::vector<int> idle;
  for (int i = 0; i < kIdle; ++i) {
    idle.push_back(connect_client(so.socket_path));
    ASSERT_GE(idle.back(), 0) << i;
  }
  // stats counts the idle clients plus its own connection.
  EXPECT_EQ(wait_for_connections(so.socket_path, kIdle + 1.0), kIdle + 1.0);
  EXPECT_EQ(thread_count(), threads);
  EXPECT_TRUE(ping_answered(so.socket_path));

  for (const int fd : idle) ::close(fd);
  EXPECT_EQ(wait_for_connections(so.socket_path, 1.0), 1.0);
  server.shutdown();
  runner.join();
}

// A client that pipelines requests but never reads the replies fills
// its socket buffers; the blocked reply times out and the daemon drops
// that connection instead of stalling every other client behind it.
TEST(ServeSmoke, ClientThatStopsReadingIsDropped) {
  serve::ServerOptions so;
  so.socket_path = ::testing::TempDir() + "msim_serve_hog_" +
                   std::to_string(::getpid()) + ".sock";
  so.workers = 1;
  serve::Server server(so);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  std::thread runner([&] { server.run(); });

  const int hog = connect_client(so.socket_path);
  ASSERT_GE(hog, 0);
  // ~1 MB of ping replies: more than both socket buffers hold.
  std::string pings;
  for (int i = 0; i < 40000; ++i) pings += "{\"op\":\"ping\"}\n";
  std::thread writer([&] {  // blocks until the daemon drops the hog
    for (std::size_t off = 0; off < pings.size();) {
      const ssize_t n = ::send(hog, pings.data() + off, pings.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_TRUE(ping_answered(so.socket_path));
  EXPECT_EQ(wait_for_connections(so.socket_path, 1.0), 1.0);
  ::shutdown(hog, SHUT_RDWR);
  writer.join();
  ::close(hog);
  server.shutdown();
  runner.join();
}

// accept() failing for want of a descriptor neither ends the I/O loop
// (the daemon would never accept again) nor spins it: the listener is
// paused until a connection closes or the retry timer fires.  The soft
// RLIMIT_NOFILE is lowered in this process, not in a forked child: a
// child forked from this multi-threaded test process cannot start the
// daemon's threads under ThreadSanitizer.
TEST(ServeSmoke, DescriptorExhaustionPausesAcceptWithoutSpinning) {
  serve::ServerOptions so;
  so.socket_path = ::testing::TempDir() + "msim_serve_emfile_" +
                   std::to_string(::getpid()) + ".sock";
  so.workers = 1;
  serve::Server server(so);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  std::thread runner([&] { server.run(); });

  std::vector<int> clients;  // accepted: their close frees descriptors
  for (int i = 0; i < 4; ++i) {
    clients.push_back(connect_client(so.socket_path));
    ASSERT_GE(clients.back(), 0);
  }
  EXPECT_EQ(wait_for_connections(so.socket_path, 5.0), 5.0);

  // Take every descriptor the lowered limit leaves with unconnected
  // sockets, then connect them: they queue in the listen backlog, and
  // the daemon has no descriptor to accept them with.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit low = saved;
  low.rlim_cur = static_cast<rlim_t>(highest_fd() + 1 + 8);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  std::vector<int> pending;
  for (int fd; (fd = ::socket(AF_UNIX, SOCK_STREAM, 0)) >= 0;)
    pending.push_back(fd);
  const int socket_errno = errno;
  int connected = 0;
  for (const int fd : pending) connected += connect_to(fd, so.socket_path);

  // The loop, woken by the listener, fails to accept and pauses.  A
  // loop spinning on the listener's readiness burns the whole window.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const double cpu0 = process_cpu_s();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const double cpu_s = process_cpu_s() - cpu0;

  for (const int fd : pending) ::close(fd);
  for (const int fd : clients) ::close(fd);
  const bool pinged = ping_answered(so.socket_path);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  EXPECT_EQ(socket_errno, EMFILE);
  EXPECT_GE(pending.size(), 4u);
  EXPECT_EQ(connected, static_cast<int>(pending.size()));
  EXPECT_LT(cpu_s, 0.125) << "I/O loop spun while accept() failed";
  EXPECT_TRUE(pinged) << "daemon stopped accepting after EMFILE";
  // (A deaf daemon would leave the stats request below hanging.)
  if (pinged) {
    EXPECT_EQ(wait_for_connections(so.socket_path, 1.0), 1.0);
  }
  server.shutdown();
  runner.join();
}

}  // namespace
