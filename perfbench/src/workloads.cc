#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "analysis/ac.h"
#include "analysis/montecarlo.h"
#include "analysis/op.h"
#include "analysis/op_report.h"
#include "analysis/pss.h"
#include "analysis/range.h"
#include "analysis/structural.h"
#include "analysis/transient.h"
#include "circuit/lint.h"
#include "core/class_ab_driver.h"
#include "core/mic_amp.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "numeric/rng.h"
#include "numeric/units.h"
#include "process/process.h"
#include "serve/deck.h"
#include "serve/json.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "signal/meter.h"
#include "spicefmt/parser.h"
#include "spicefmt/writer.h"

namespace perfbench {
namespace {

using namespace msim;

// splitmix64 finalizer: decorrelates (seed, index) into one stream seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t index) {
  return mix(mix(seed) ^ index);
}

std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ull) {
  const auto* b = static_cast<const unsigned char*>(data);
  for (std::size_t k = 0; k < n; ++k) {
    h ^= b[k];
    h *= 1099511628211ull;
  }
  return h;
}

// Drops the wall-clock "solver time:" lines, the only bytes of a deck
// job's output that differ between two runs of the same deck.
std::string strip_timing(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t end = s.find('\n', pos);
    end = end == std::string::npos ? s.size() : end + 1;
    if (s.compare(pos, 12, "solver time:") != 0) out.append(s, pos, end - pos);
    pos = end;
  }
  return out;
}

std::vector<std::string> tokens(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ' ' || c == '\n' || c == '\t' || c == ',') {
      if (!cur.empty()) out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

// Parses a whole token as a number; `unit` gets one unit in its last
// printed digit (op_report prints 3 significant digits).
bool parse_number(const std::string& tok, double& v, double& unit) {
  char* end = nullptr;
  v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0' || !std::isfinite(v)) return false;
  const std::size_t e = tok.find_first_of("eE");
  const std::string mant = tok.substr(0, e);
  const std::size_t dot = mant.find('.');
  const int decimals =
      dot == std::string::npos ? 0 : static_cast<int>(mant.size() - dot - 1);
  const int exponent =
      e == std::string::npos ? 0 : std::atoi(tok.c_str() + e + 1);
  unit = std::pow(10.0, exponent - decimals);
  return true;
}

// Two op reports agree when their token streams match: numbers within
// 1e-5 relative or one unit in the last printed digit (a warm job
// adopts another gain code's pivot order, which may flip a rounding),
// every other token byte-equal.
bool reports_agree(const std::string& a, const std::string& b) {
  const auto ta = tokens(strip_timing(a));
  const auto tb = tokens(strip_timing(b));
  if (ta.size() != tb.size()) return false;
  for (std::size_t k = 0; k < ta.size(); ++k) {
    if (ta[k] == tb[k]) continue;
    double x = 0, y = 0, ux = 0, uy = 0;
    if (!parse_number(ta[k], x, ux) || !parse_number(tb[k], y, uy))
      return false;
    const double tol =
        std::max({1e-5 * std::max(std::abs(x), std::abs(y)), ux, uy});
    if (!(std::abs(x - y) <= tol)) return false;
  }
  return true;
}

// ------------------------------------------------------------ rigs

// The Table-1 microphone amplifier between +-1.3 V rails, differential
// inputs carrying the AC excitation.
core::MicAmp build_mic(ckt::Netlist& nl, const proc::ProcessModel& pm) {
  const auto vdd = nl.node("vdd");
  const auto vss = nl.node("vss");
  const auto inp = nl.node("inp");
  const auto inn = nl.node("inn");
  nl.add<dev::VSource>("Vdd", vdd, ckt::kGround, 1.3);
  nl.add<dev::VSource>("Vss", vss, ckt::kGround, -1.3);
  nl.add<dev::VSource>("Vinp", inp, ckt::kGround,
                       dev::Waveform::dc(0.0).with_ac(0.5));
  nl.add<dev::VSource>("Vinn", inn, ckt::kGround,
                       dev::Waveform::dc(0.0).with_ac(-0.5));
  return core::build_mic_amp(nl, pm, {}, vdd, vss, ckt::kGround, inp, inn);
}

// The Table-2 class-AB buffer in the Fig. 9 inverting connection at
// 2.6 V into 50 ohm, driven by a 1 kHz sine of `vp` per side.
std::pair<ckt::NodeId, ckt::NodeId> build_buffer(ckt::Netlist& nl,
                                                 double vp) {
  const auto pm = proc::ProcessModel::cmos12();
  const auto vdd = nl.node("vdd");
  const auto vss = nl.node("vss");
  const auto src_p = nl.node("src_p");
  const auto src_n = nl.node("src_n");
  const auto fb_p = nl.node("fb_p");
  const auto fb_n = nl.node("fb_n");
  nl.add<dev::VSource>("Vdd", vdd, ckt::kGround, 1.3);
  nl.add<dev::VSource>("Vss", vss, ckt::kGround, -1.3);
  nl.add<dev::VSource>("Vsp", src_p, ckt::kGround,
                       dev::Waveform::sine(0.0, vp, 1e3));
  nl.add<dev::VSource>("Vsn", src_n, ckt::kGround,
                       dev::Waveform::sine(0.0, -vp, 1e3));
  const auto drv = core::build_class_ab_driver(nl, pm, {}, vdd, vss,
                                               ckt::kGround, fb_p, fb_n);
  nl.add<dev::Resistor>("Ra1", src_p, fb_n, 20e3);
  nl.add<dev::Resistor>("Rf1", drv.outp, fb_n, 20e3);
  nl.add<dev::Resistor>("Ra2", src_n, fb_p, 20e3);
  nl.add<dev::Resistor>("Rf2", drv.outn, fb_p, 20e3);
  nl.add<dev::Resistor>("RL", drv.outp, drv.outn, 50.0);
  return {drv.outp, drv.outn};
}

// Seeded mic-amp decks: deck i sets gain code i % 6 and scales every
// resistor by (1 + 1e-3 N(0,1)) from its own stream, then serializes
// with spice::write_netlist.  Every deck text is distinct; all share
// one topology fingerprint.
class MicDecks {
 public:
  MicDecks(std::uint64_t seed, std::string directives)
      : seed_(seed), directives_(std::move(directives)) {
    const auto pm = proc::ProcessModel::cmos12();
    for (int k = 0; k < core::kMicGainCodes; ++k) {
      Rig& r = rigs_[static_cast<std::size_t>(k)];
      build_mic(r.nl, pm).set_gain_code(k);
      for (const auto& d : r.nl.devices())
        if (auto* res = dynamic_cast<dev::Resistor*>(d.get())) {
          r.res.push_back(res);
          r.nominal.push_back(res->nominal_resistance());
        }
    }
  }

  std::string deck(std::uint64_t i) {
    Rig& r = rigs_[i % core::kMicGainCodes];
    num::Rng rng(stream_seed(seed_, i));
    for (std::size_t k = 0; k < r.res.size(); ++k)
      r.res[k]->set_resistance(r.nominal[k] * (1.0 + 1e-3 * rng.normal()));
    std::string text =
        spice::write_netlist(r.nl, "perfbench mic-amp " + std::to_string(i));
    text.insert(text.rfind(".end"), directives_);
    return text;
  }

 private:
  struct Rig {
    ckt::Netlist nl;
    std::vector<dev::Resistor*> res;
    std::vector<double> nominal;
  };
  std::uint64_t seed_;
  std::string directives_;
  std::array<Rig, core::kMicGainCodes> rigs_;
};

void add_op_stats(const an::OpResult& op, Samples& s) {
  s.add("op.newton_iters", op.iterations);
  s.add("op.factor_count", static_cast<double>(op.solver_stats.factor_count));
  s.add("op.stamp_us", static_cast<double>(op.solver_stats.stamp_ns) / 1e3);
  s.add("op.factor_us", static_cast<double>(op.solver_stats.factor_ns) / 1e3);
  s.add("op.phase_solve_us",
        static_cast<double>(op.solver_stats.solve_ns) / 1e3);
}

// Replays serve::run_deck's steps for one deck through their public
// entry points, in run_deck's order, each under its own span.  The
// lint step runs the circuit library's passes, then the analysis
// layer's structural-rank and value-range passes as child spans (the
// same work ckt::lint's registered passes do).  Returns the summed
// duration of the top-level spans [us].
double replay_deck(const std::string& deck, serve::CacheRegistry* reg,
                   Trace& t, Samples& s) {
  an::register_analysis_lint_passes();
  double sum = 0.0;
  spice::ParseResult parsed;
  {
    Scope sp(&t, "spicefmt.parse");
    parsed = spice::parse_netlist(deck);
    const double us = sp.end();
    sum += us;
    s.add("spicefmt.parse_mb_per_s", static_cast<double>(deck.size()) / us);
  }
  ckt::Netlist& nl = *parsed.netlist;
  {
    Scope sp(&t, "circuit.assign_unknowns");
    nl.assign_unknowns();
    sum += sp.end();
  }
  serve::AdoptOutcome adopted;
  if (reg) {
    Scope sp(&t, "registry.adopt");
    adopted = reg->adopt_into(nl);
    sum += sp.end();
  }
  ckt::LintOptions lo;
  lo.value_dependent_only = adopted.warm && adopted.lint_clean;
  lo.disable = {"structural_rank", "value_range"};
  bool clean = true;
  {
    Scope sp(&t, lo.value_dependent_only ? "circuit.lint_value"
                                         : "circuit.lint");
    clean = ckt::lint(nl, lo).empty();
    if (!lo.value_dependent_only) {
      Scope ss(&t, "analysis.structural");
      clean = clean && !an::analyze_structure(nl).singular();
    }
    {
      Scope sr(&t, "analysis.range");
      clean = clean && an::range_analysis(nl, {}).rail_violations.empty();
    }
    sum += sp.end();
  }
  an::OpOptions oo;
  oo.temp_k = num::celsius_to_kelvin(parsed.temp_c);
  for (const auto& d : parsed.directives) {
    if (d.kind != "op" && d.kind != "ac") continue;
    an::OpResult op;
    {
      Scope sp(&t, "op.solve");
      op = an::solve_op(nl, oo);
      sum += sp.end();
    }
    add_op_stats(op, s);
    if (d.kind == "op") {
      Scope sp(&t, "report.op_report");
      const std::string report = an::op_report(nl, op);
      sum += sp.end();
    } else {
      const auto freqs = an::log_frequencies(spice::parse_value(d.args[2]),
                                             spice::parse_value(d.args[3]),
                                             std::atoi(d.args[1].c_str()));
      Scope sp(&t, "ac.solve");
      const auto ac = an::run_ac_diag(nl, freqs);
      sum += sp.end();
      s.add("ac.points", static_cast<double>(ac.solutions.size()));
    }
  }
  if (reg) {
    Scope sp(&t, "registry.publish");
    reg->publish_from(nl, clean);
    sum += sp.end();
  }
  return sum;
}

// --------------------------------------------------- serve-warm-op

// One serve::submit_and_wait per op (a fresh connection per job, as
// msim_serve --submit does) to an in-process daemon with one worker.
class ServeWarmOp final : public Workload {
 public:
  void prepare(std::uint64_t seed) override {
    seed_ = seed;
    decks_ = std::make_unique<MicDecks>(seed, ".op\n");
    prime_deck_ = decks_->deck(kPrimeIndex);
    socket_ = "perfbench-" + std::to_string(::getpid()) + ".sock";
  }

  void setup() override {
    serve::ServerOptions so;
    so.socket_path = socket_;
    so.workers = 1;
    server_ = std::make_unique<serve::Server>(so);
    std::string err;
    if (!server_->start(&err)) throw std::runtime_error("daemon: " + err);
    if (submit(prime_deck_) != 0)
      throw std::runtime_error("priming job failed: " + err_ + terr_);
    base_ = server_->registry().stats();
  }

  void stage(std::size_t i) override {
    if (block_.empty() || i >= block_base_ + block_.size()) {
      block_base_ = i;
      block_.clear();
      for (std::size_t k = 0; k < kBlock; ++k)
        block_.push_back(decks_->deck(i + k));
    }
  }

  void op(std::size_t i, Trace* t, Samples*) override {
    Scope sp(t, "serve.round_trip");
    code_ = submit(block_[i - block_base_]);
    round_trip_us_ = sp.end();
  }

  void record(std::size_t i) override {
    ok_.push_back(code_ == 0 && warm_ && !cached_);
    if (stream_seed(seed_ ^ 0x5a5a5a5aull, i) % kCheckEvery == 0)
      sampled_.emplace_back(i, out_);
  }

  void after_traced_op(std::size_t i, Trace& t, Samples& s) override {
    const std::string& deck = block_[i - block_base_];
    if (!local_primed_) {
      serve::run_deck(prime_deck_, {}, &local_);
      local_primed_ = true;
    }
    // JSON layer: the submit's dump plus the parse of its result line.
    serve::Json res = serve::Json::object();
    res.set("op", "result");
    res.set("id", "j" + std::to_string(i));
    res.set("exit_code", code_);
    res.set("warm", warm_);
    res.set("cached", cached_);
    res.set("out", out_);
    res.set("err", err_);
    const std::string line = res.dump();
    const serve::Json req = submit_json(deck);
    const auto j0 = now_ns();
    const std::string sent = req.dump();
    const serve::Json back = serve::Json::parse(line);
    const auto j1 = now_ns();
    if (sent.empty() || back.is_null())
      throw std::runtime_error("json round trip failed");
    s.add("serve.json_us", static_cast<double>(j1 - j0) / 1e3);

    // The same deck in-process on a warm registry, then its steps.
    double run_us = 0.0;
    {
      Scope sp(&t, "deck.run");
      serve::run_deck(deck, {}, &local_);
      run_us = sp.end();
    }
    s.add("serve.daemon_overhead_us", round_trip_us_ - run_us);
    const double attributed = replay_deck(deck, &local_, t, s);
    s.add("deck.unattributed_frac", 1.0 - attributed / run_us);
  }

  void final_samples(Samples& s) override {
    const serve::RegistryStats st = server_->registry().stats();
    const auto lookups = static_cast<double>(
        (st.hits + st.misses) - (base_.hits + base_.misses));
    const auto memo = static_cast<double>(
        (st.result_hits + st.result_misses) -
        (base_.result_hits + base_.result_misses));
    s.add("registry.hit_frac",
          lookups > 0 ? static_cast<double>(st.hits - base_.hits) / lookups
                      : 0.0);
    s.add("registry.memo_hit_frac",
          memo > 0 ? static_cast<double>(st.result_hits - base_.result_hits) /
                         memo
                   : 0.0);
    s.add("registry.bytes", static_cast<double>(st.bytes));
  }

  std::size_t check(std::size_t ops) override {
    std::vector<char> ok(ok_.begin(), ok_.begin() + static_cast<long>(ops));
    for (const auto& [i, out] : sampled_) {
      if (i >= ops) continue;
      const auto cold = serve::run_deck(decks_->deck(i), {}, nullptr);
      if (cold.exit_code != 0 || !reports_agree(out, cold.out)) ok[i] = 0;
    }
    std::size_t failed = 0;
    for (char c : ok) failed += c ? 0 : 1;
    return failed;
  }

  void teardown() override {
    if (server_) server_->shutdown();
    server_.reset();
  }

  std::string threads_json() const override {
    return "{\"serve_workers\":1,\"clients\":1,\"mc_threads\":0,"
           "\"ac_threads\":1}";
  }

 private:
  static constexpr std::uint64_t kPrimeIndex = 1ull << 40;
  static constexpr std::size_t kBlock = 256;
  static constexpr std::uint64_t kCheckEvery = 16;

  static serve::Json submit_json(const std::string& deck) {
    serve::Json j = serve::Json::object();
    j.set("op", "submit");
    j.set("deck", deck);
    return j;
  }

  int submit(const std::string& deck) {
    warm_ = cached_ = false;
    return serve::submit_and_wait(socket_, submit_json(deck), out_, err_,
                                  &terr_, &warm_, &cached_);
  }

  std::uint64_t seed_ = 0;
  std::unique_ptr<MicDecks> decks_;
  std::string prime_deck_;
  std::vector<std::string> block_;
  std::size_t block_base_ = 0;
  std::string socket_;
  std::unique_ptr<serve::Server> server_;
  serve::RegistryStats base_;
  serve::CacheRegistry local_;
  bool local_primed_ = false;
  // Last op's outcome.
  int code_ = -1;
  bool warm_ = false, cached_ = false;
  std::string out_, err_, terr_;
  double round_trip_us_ = 0.0;
  std::vector<char> ok_;
  std::vector<std::pair<std::size_t, std::string>> sampled_;
};

// ----------------------------------------------------- cli-cold-ac

// In-process serve::run_deck with no registry: one msim_cli run.
class CliColdAc final : public Workload {
 public:
  void prepare(std::uint64_t seed) override {
    MicDecks decks(seed, ".op\n.ac dec 10 10 1e6\n");
    for (std::size_t k = 0; k < kPool; ++k) pool_.push_back(decks.deck(k));
    first_deck_ = decks.deck(kPool);
  }

  void setup() override {
    if (serve::run_deck(first_deck_, {}, nullptr).exit_code != 0)
      throw std::runtime_error("first deck job failed");
  }

  void op(std::size_t i, Trace* t, Samples*) override {
    Scope sp(t, "deck.run");
    last_ = serve::run_deck(pool_[i % kPool], {}, nullptr);
    run_us_ = sp.end();
  }

  void record(std::size_t) override { hashes_.push_back(result_hash(last_)); }

  void after_traced_op(std::size_t i, Trace& t, Samples& s) override {
    const double attributed = replay_deck(pool_[i % kPool], nullptr, t, s);
    s.add("deck.unattributed_frac", 1.0 - attributed / run_us_);
  }

  std::size_t check(std::size_t ops) override {
    std::vector<std::uint64_t> ref;
    for (const auto& deck : pool_)
      ref.push_back(result_hash(serve::run_deck(deck, {}, nullptr)));
    std::size_t failed = 0;
    for (std::size_t i = 0; i < ops; ++i)
      failed += (hashes_[i] != 0 && hashes_[i] == ref[i % kPool]) ? 0 : 1;
    return failed;
  }

  std::string threads_json() const override {
    return "{\"serve_workers\":0,\"clients\":1,\"mc_threads\":0,"
           "\"ac_threads\":1}";
  }

 private:
  static constexpr std::size_t kPool = 60;  // 10 decks per gain code

  // 0 marks a failed job; otherwise a hash of the timing-free bytes.
  static std::uint64_t result_hash(const serve::DeckResult& r) {
    if (r.exit_code != 0) return 0;
    const std::string out = strip_timing(r.out);
    return fnv1a(r.err.data(), r.err.size(), fnv1a(out.data(), out.size())) |
           1;
  }

  std::vector<std::string> pool_;
  std::string first_deck_;
  serve::DeckResult last_;
  double run_us_ = 0.0;
  std::vector<std::uint64_t> hashes_;
};

// ------------------------------------------------------- table1-mc

// The Table-1 gain-accuracy Monte-Carlo: one op is one 20-sample
// an::monte_carlo_shared batch at one gain code, threads = 1.
class Table1Mc final : public Workload {
 public:
  void prepare(std::uint64_t seed) override {
    for (std::size_t k = 0; k < kPool; ++k)
      pool_.push_back({static_cast<int>(k % core::kMicGainCodes),
                       stream_seed(seed, k)});
    first_ = {core::kMicGainCodes - 1, stream_seed(seed, kPool)};
    ckt::Netlist nl;
    const auto mic = build_mic(nl, pm_);
    outp_ = mic.outp;
    outn_ = mic.outn;
  }

  void setup() override {
    if (batch(first_, nullptr, nullptr).failures != 0)
      throw std::runtime_error("first batch failed");
  }

  void op(std::size_t i, Trace* t, Samples* s) override {
    last_ = batch(pool_[i % kPool], t, s);
  }

  void record(std::size_t) override { hashes_.push_back(stats_hash(last_)); }

  std::size_t check(std::size_t ops) override {
    std::vector<std::uint64_t> ref;
    for (const auto& b : pool_) {
      const an::McStats st = batch(b, nullptr, nullptr);
      // Physical sanity on the reference: the closed-loop gain sits at
      // its ideal 10 + 6k dB.
      const bool sane =
          std::abs(st.mean() - core::MicAmp::code_gain_db(b.code)) < 0.5;
      ref.push_back(sane ? stats_hash(st) : 0);
    }
    std::size_t failed = 0;
    for (std::size_t i = 0; i < ops; ++i)
      failed += (hashes_[i] != 0 && hashes_[i] == ref[i % kPool]) ? 0 : 1;
    return failed;
  }

  std::string threads_json() const override {
    return "{\"serve_workers\":0,\"clients\":1,\"mc_threads\":1,"
           "\"ac_threads\":1}";
  }

 private:
  struct Batch {
    int code = 0;
    std::uint64_t seed = 0;
  };
  static constexpr std::size_t kPool = 12;  // two batch seeds per code
  static constexpr int kSamples = 20;

  // 0 marks a batch with failed samples; otherwise the bits of every
  // sample value.
  static std::uint64_t stats_hash(const an::McStats& st) {
    if (st.failures != 0 || st.samples.size() != kSamples) return 0;
    return fnv1a(st.samples.data(), st.samples.size() * sizeof(double)) | 1;
  }

  an::McStats batch(const Batch& b, Trace* t, Samples* s) {
    num::Rng rng(b.seed);
    an::McOptions mo;
    mo.threads = 1;
    std::uint64_t fp0 = 0;
    int measured = 0, adopted = 0;
    an::McStats st = an::monte_carlo_shared(
        kSamples, rng,
        [&](num::Rng& r, ckt::Netlist& nl) {
          Scope sb(t, "mc.build");
          core::MicAmp mic;
          {
            Scope sr(t, "core.rig_build");
            mic = build_mic(nl, pm_);
          }
          for (auto* seg : mic.string_segments_p)
            seg->apply_relative_error(pm_.sample_resistor_mismatch(r));
          for (auto* seg : mic.string_segments_n)
            seg->apply_relative_error(pm_.sample_resistor_mismatch(r));
          mic.set_gain_code(b.code);
        },
        [&](ckt::Netlist& nl) {
          Scope sm(t, "mc.measure");
          if (s) {
            // monte_carlo_shared adopts sample 0's structure into every
            // later sample whose topology fingerprint matches.
            const std::uint64_t fp = nl.topology_fingerprint();
            if (measured++ == 0)
              fp0 = fp;
            else if (fp == fp0)
              ++adopted;
          }
          an::OpResult op;
          {
            Scope so(t, "op.solve");
            op = an::solve_op(nl, {});
          }
          if (!op.converged) return an::McTrial::failed(op.diag);
          if (s) add_op_stats(op, *s);
          an::AcResult ac;
          {
            Scope sa(t, "ac.solve");
            ac = an::run_ac_diag(nl, {1e3});
          }
          if (!ac.ok()) return an::McTrial::failed(ac.diag);
          if (s) s->add("ac.points", 1.0);
          return an::McTrial::of(
              an::to_db(std::abs(ac.vdiff(0, outp_, outn_))));
        },
        mo);
    if (s && measured > 1)
      s->add("mc.adopt_frac", static_cast<double>(adopted) / (measured - 1));
    return st;
  }

  const proc::ProcessModel pm_ = proc::ProcessModel::cmos12();
  std::vector<Batch> pool_;
  Batch first_;
  ckt::NodeId outp_{}, outn_{};
  an::McStats last_;
  std::vector<std::uint64_t> hashes_;
};

// -------------------------------------------------------- tone-thd

// Class-AB buffer THD at the Table-2 full-swing point (0.3 V per side,
// 1 kHz, dt 1 us): shooting PSS plus the harmonic meter on a fresh
// netlist per op.  The seed does not change the input (one amplitude).
class ToneThd final : public Workload {
 public:
  void prepare(std::uint64_t) override { oracle_ = settle_oracle(); }

  void setup() override {
    if (!(thd(nullptr, nullptr) >= 0.0))
      throw std::runtime_error("first PSS run failed");
  }

  void op(std::size_t, Trace* t, Samples* s) override { last_ = thd(t, s); }

  void record(std::size_t) override { thds_.push_back(last_); }

  std::size_t check(std::size_t ops) override {
    const double ref = thd(nullptr, nullptr);
    const bool agrees =
        ref > 0.0 && std::abs(ref - oracle_) <= kOracleTol * oracle_;
    std::size_t failed = 0;
    for (std::size_t i = 0; i < ops; ++i)
      failed +=
          (agrees && std::memcmp(&thds_[i], &ref, sizeof ref) == 0) ? 0 : 1;
    return failed;
  }

  std::string threads_json() const override {
    return "{\"serve_workers\":0,\"clients\":1,\"mc_threads\":0,"
           "\"ac_threads\":0}";
  }

 private:
  static constexpr double kAmplitude = 0.3;
  static constexpr double kF0 = 1e3;
  static constexpr double kDt = 1e-6;
  static constexpr double kOracleTol = 0.05;

  // THD of one op, or -1 when PSS fails.
  static double thd(Trace* t, Samples* s) {
    ckt::Netlist nl;
    std::pair<ckt::NodeId, ckt::NodeId> out;
    {
      Scope sr(t, "core.rig_build");
      out = build_buffer(nl, kAmplitude);
    }
    an::PssOptions o;
    o.tran.dt = kDt;
    an::PssResult r;
    {
      Scope sp(t, "pss.run");
      r = an::run_pss_shooting(nl, o);
    }
    if (!r.ok) return -1.0;
    double v = 0.0;
    {
      Scope sh(t, "signal.harmonics");
      v = r.harmonics(r.diff_wave(out.first, out.second)).thd;
    }
    if (s) {
      const auto& p = r.telemetry;
      s->add("pss.periods_integrated", p.periods_integrated);
      s->add("pss.shooting_iterations", p.shooting_iterations);
      s->add("pss.phi_solves", static_cast<double>(p.phi_solve_count));
      s->add("pss.phi_us", static_cast<double>(p.phi_ns) / 1e3);
      s->add("tran.accepted_steps",
             static_cast<double>(p.tran.accepted_steps));
      s->add("tran.newton_iters",
             static_cast<double>(p.tran.newton_iterations));
      s->add("tran.factor_count", static_cast<double>(p.tran.factor_count));
      s->add("tran.reuse_count", static_cast<double>(p.tran.reuse_count));
      s->add("tran.stamp_us", static_cast<double>(p.tran.stamp_ns) / 1e3);
      s->add("tran.factor_us", static_cast<double>(p.tran.factor_ns) / 1e3);
      s->add("tran.solve_us", static_cast<double>(p.tran.solve_ns) / 1e3);
    }
    return v;
  }

  // Doubling-verified settle oracle: settle s periods, record 3, double
  // s until two consecutive THD estimates agree within the tolerance.
  static double settle_oracle() {
    const auto plan = sig::plan_coherent_capture(kF0, kDt);
    double prev = -1.0;
    for (double settle = 2.0; settle <= 32.0; settle *= 2.0) {
      ckt::Netlist nl;
      const auto [outp, outn] = build_buffer(nl, kAmplitude);
      an::TranOptions t;
      t.dt = plan.dt;
      t.record_after = settle / kF0;
      t.t_stop = (settle + 3.0) / kF0;
      const auto tr = an::run_transient(nl, t);
      if (!tr.ok)
        throw std::runtime_error("settle oracle: " + tr.diag.message());
      auto w = tr.diff_wave(outp, outn);
      // Exactly three periods: the recorded span has one extra sample.
      w.resize(std::min(w.size(), 3u * static_cast<std::size_t>(
                                           plan.samples_per_period)));
      const double thd = sig::measure_harmonics(w, t.dt, kF0).thd;
      if (prev >= 0.0 &&
          std::abs(thd - prev) <= kOracleTol * std::max(thd, prev))
        return thd;
      prev = thd;
    }
    throw std::runtime_error("settle oracle did not converge");
  }

  double oracle_ = 0.0;
  double last_ = -1.0;
  std::vector<double> thds_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "serve-warm-op") return std::make_unique<ServeWarmOp>();
  if (name == "cli-cold-ac") return std::make_unique<CliColdAc>();
  if (name == "table1-mc") return std::make_unique<Table1Mc>();
  if (name == "tone-thd") return std::make_unique<ToneThd>();
  return nullptr;
}

}  // namespace perfbench
