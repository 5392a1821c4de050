#include "serve/deck.h"

#include <atomic>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "analysis/ac.h"
#include "analysis/montecarlo.h"
#include "analysis/noise.h"
#include "analysis/op.h"
#include "analysis/op_report.h"
#include "analysis/pss.h"
#include "analysis/range.h"
#include "analysis/structural.h"
#include "analysis/sweep.h"
#include "analysis/transient.h"
#include "circuit/lint.h"
#include "core/text_writer.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "numeric/rng.h"
#include "numeric/units.h"
#include "spicefmt/parser.h"

namespace msim::serve {
namespace {

// A job's stdout and stderr: the directive loop below is msim_cli's
// historical run(), its printf calls turned into typed appends with the
// same bytes ("%g" and "%.6g" are num(v), "%.4g" num(v, 4), "%.1f"
// fixed(v, 1)), so the captured bytes match a one-shot CLI run exactly.
using Sink = core::TextWriter;

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

std::vector<ckt::NodeId> resolve_probes(ckt::Netlist& nl,
                                        const std::string& probe_arg,
                                        Sink& err) {
  std::vector<ckt::NodeId> probes;
  if (!probe_arg.empty()) {
    for (const auto& name : split_csv(probe_arg)) {
      const ckt::NodeId n = nl.find_node(name);
      if (n == ckt::kInvalidNode) {
        err.add("warning: probe node '").add(name)
            .add("' not in netlist; ignored\n");
        continue;
      }
      probes.push_back(n);
    }
    return probes;
  }
  for (int n = 1; n < nl.node_count() && probes.size() < 8; ++n) {
    const auto& name = nl.node_name(n);
    if (name.rfind('_', 0) == 0) continue;  // skip internal nodes
    probes.push_back(n);
  }
  return probes;
}

void print_probe_header(Sink& out, const ckt::Netlist& nl, const char* x_name,
                        const std::vector<ckt::NodeId>& probes) {
  out.add(x_name);
  for (auto p : probes) out.add(",v(").add(nl.node_name(p)).add(')');
  out.add('\n');
}

// A .tran or --pss result: the probe header, then one row per sample.
void print_rows(Sink& out, const ckt::Netlist& nl,
                const std::vector<ckt::NodeId>& probes,
                const std::vector<double>& time,
                const std::vector<num::RealVector>& x) {
  print_probe_header(out, nl, "time", probes);
  for (std::size_t i = 0; i < time.size(); ++i) {
    out.num(time[i]);
    for (auto p : probes)
      out.add(',').num(p == ckt::kGround ? 0.0 : x[i][p - 1]);
    out.add('\n');
  }
}

double arg_num(const spice::AnalysisDirective& d, std::size_t i) {
  if (i >= d.args.size())
    throw std::runtime_error("missing argument in ." + d.kind);
  return spice::parse_value(d.args[i]);
}

// The most points a .dc, .ac or .noise sweep or a .tran may ask for: a
// tiny-but-valid step would otherwise exhaust memory before any cancel
// or budget check runs.
constexpr double kMaxSweepPoints = 1e6;

// The frequency grid of `.ac dec N fstart fstop` (args from `i` on) or
// the tail of a .noise card.  Checked before any cast or loop: a zero,
// negative or non-finite frequency logs to nan, and an out-of-range
// points-per-decade overflows the int the grid is counted in.
std::vector<double> dec_grid(const spice::AnalysisDirective& d,
                             std::size_t i) {
  if (i >= d.args.size() || d.args[i] != "dec")
    throw std::runtime_error("." + d.kind + " supports dec sweeps only");
  const double ppd = arg_num(d, i + 1), f1 = arg_num(d, i + 2),
               f2 = arg_num(d, i + 3);
  if (!(ppd >= 1.0 && ppd <= kMaxSweepPoints && ppd == std::floor(ppd)) ||
      !std::isfinite(f2) || !(f1 > 0.0 && f1 <= f2))
    throw std::runtime_error(
        "." + d.kind +
        " needs a positive integer points per decade and finite "
        "0 < fstart <= fstop");
  if (std::log10(f2 / f1) * ppd > kMaxSweepPoints)
    throw std::runtime_error("." + d.kind + " sweep exceeds 1e6 points");
  return an::log_frequencies(f1, f2, static_cast<int>(ppd));
}

// Publishes the netlist's solver structure back to the registry when
// the job ends, however it ends (early lint exit, solver failure,
// exception): whatever structure got built is valid and worth keeping.
struct PublishGuard {
  CacheRegistry* reg = nullptr;
  const ckt::Netlist* nl = nullptr;
  bool lint_clean = false;
  ~PublishGuard() {
    if (reg && nl) reg->publish_from(*nl, lint_clean);
  }
};

int run_deck_impl(const std::string& deck_text, const DeckOptions& cli,
                  CacheRegistry* registry, Sink& out, Sink& err,
                  bool& warm) {
  auto parsed = spice::parse_netlist(deck_text);
  auto& nl = *parsed.netlist;
  const double temp_k = num::celsius_to_kelvin(parsed.temp_c);
  const auto probes = resolve_probes(nl, cli.probe_arg, err);

  // Static pre-pass: all registered passes (including the analysis
  // layer's structural-rank check), every issue surfaced, errors abort.
  an::register_analysis_lint_passes();
  if (!nl.devices().empty()) nl.assign_unknowns();

  // Registry warm-up: adopt the shared solver structure for this
  // topology (fingerprint hit + structural-key check) before anything
  // solves, publish whatever this job built on the way out.
  AdoptOutcome adopted;
  PublishGuard publish{registry, &nl, false};
  if (registry && !nl.devices().empty()) {
    adopted = registry->adopt_into(nl);
    warm = adopted.warm;
  }

  ckt::LintOptions lint_opt;
  lint_opt.disable = cli.lint_disable;
  // A warm topology whose priming run's full lint was clean skips the
  // value-independent passes: same fingerprint means the structural
  // passes reproduce the priming run's zero issues.  The value-dependent
  // passes (finite_params, value_range) still run -- the fingerprint
  // excludes device values, so a same-topology deck can smuggle in a
  // NaN parameter or a fresh range violation the priming run never saw,
  // and skipping them would simulate what a cold run refuses.  Either
  // way the issue list matches a cold run of this exact deck.  Any
  // custom pass selection falls back to the full run.
  lint_opt.value_dependent_only =
      adopted.warm && adopted.lint_clean && cli.lint_disable.empty();
  // One value-range analysis per job, shared by the value_range lint
  // pass and every op_report below.  op_report prints only its node
  // bounds, which follow source and element values (not the device
  // temperature a solve sets), so only a .dc sweep, which leaves its
  // source at the last point, makes it stale.
  an::RangeReport range = an::range_analysis(nl, {});
  const std::vector<ckt::LintIssue> issues =
      ckt::lint(nl, lint_opt, {an::range_lint_pass(&range)});
  publish.lint_clean =
      issues.empty() && cli.lint_disable.empty() && !nl.devices().empty();
  if (cli.range_json) {
    // Machine-readable value-range report: interval node bounds,
    // supply hull, headroom, dead devices, conditioning forecast.
    out.add(an::range_json(range)).add('\n');
    return ckt::lint_has_errors(issues) ? 3 : 0;
  }
  if (cli.lint_json) {
    out.add(ckt::lint_json(issues)).add('\n');
    if (ckt::lint_has_errors(issues)) return 3;
    return issues.empty() ? 0 : (cli.lint_strict ? 3 : 1);
  }
  if (!issues.empty()) err.add(ckt::lint_report(issues));
  if (ckt::lint_has_errors(issues) ||
      (cli.lint_strict && !issues.empty())) {
    err.add("netlist lint failed; not simulating\n");
    return 3;
  }
  if (cli.lint_only) return issues.empty() ? 0 : 1;

  if (parsed.directives.empty()) {
    err.add("no analysis directives; running .op\n");
    parsed.directives.push_back({"op", {}});
  }

  // One shared budget across every directive of the run: the wall-clock
  // limit bounds the whole invocation, not each analysis separately.
  // An external budget (daemon cancellation hook) takes precedence.
  core::RunBudget local_budget(cli.budget_ms);
  core::RunBudget* budget_p = cli.budget
                                  ? cli.budget
                                  : (cli.budget_ms > 0.0 ? &local_budget
                                                         : nullptr);

  // A clean run of every registered pass is the verdict the first
  // preflight on `nl` reaches, as long as that preflight sees the deck's
  // own values.  The first solve records it (use_lint_verdict), so the
  // job's preflights skip their lint.  A .dc sweep solves at its first
  // swept value instead, so it drops the pending verdict.  The warm
  // value-only subset leaves the adopted verdict in place.
  bool lint_verdict_pending =
      publish.lint_clean && !lint_opt.value_dependent_only;
  auto use_lint_verdict = [&] {
    if (lint_verdict_pending) an::record_clean_verdict(nl);
    lint_verdict_pending = false;
  };

  an::OpOptions op_opt;
  op_opt.temp_k = temp_k;
  op_opt.budget = budget_p;
  // The job's converged operating point, shared by .op, .ac and .noise:
  // solving the same netlist again from the same zero start replays the
  // first solve's slot tables and symbolic analysis and reproduces its
  // bits, so one solve serves them all.  .dc, .tran and the Monte-Carlo
  // .op drop it: they move source values or device state.
  an::OpResult held_op;
  auto operating_point = [&]() -> const an::OpResult& {
    if (!held_op.converged) {
      use_lint_verdict();
      held_op = an::solve_op(nl, op_opt);
    }
    if (!held_op.converged)
      err.add("operating point failed: ").add(held_op.diag.message())
          .add('\n');
    return held_op;
  };

  for (const auto& d : parsed.directives) {
    out.add("* .").add(d.kind);
    for (const auto& a : d.args) out.add(' ').add(a);
    out.add("  (T = ").fixed(parsed.temp_c, 1).add(" C)\n");
    if (d.kind == "dc" || d.kind == "tran" || (d.kind == "op" && cli.mc > 1))
      held_op = an::OpResult{};

    if (d.kind == "op" && cli.mc > 1) {
      // Monte-Carlo job: N samples of the deck's operating point with a
      // 1% gaussian resistor spread; statistics over the first probe.
      // Sample 0 primes (or adopts from the registry) the shared solver
      // structure, later samples adopt it -- the monte_carlo_shared
      // idiom, so statistics are bit-identical at any thread count.
      if (probes.empty()) {
        err.add("mc: no probe nodes\n");
        return 1;
      }
      num::Rng rng(cli.mc_seed);
      an::McOptions mo;
      mo.budget = budget_p;
      std::atomic<bool> first{true};
      const auto stats = an::monte_carlo_shared(
          cli.mc, rng,
          [&](num::Rng& r, ckt::Netlist& snl) {
            auto sample = spice::parse_netlist(deck_text);
            snl = std::move(*sample.netlist);
            for (const auto& dv : snl.devices())
              if (auto* res = dynamic_cast<dev::Resistor*>(dv.get()))
                res->set_resistance(res->nominal_resistance() *
                                    (1.0 + 0.01 * r.normal()));
            snl.assign_unknowns();
            // The serial sample-0 build adopts the registry structure;
            // every other sample inherits it through the MC driver's
            // own sample-0 adoption.
            if (registry && first.exchange(false)) {
              if (registry->adopt_into(snl).warm) warm = true;
            }
          },
          [&](ckt::Netlist& snl) {
            an::OpOptions o = op_opt;
            const auto op = an::solve_op(snl, o);
            if (!op.converged) return an::McTrial::failed(op.diag);
            return an::McTrial::of(op.v(probes[0]));
          },
          mo);
      out.add("mc,").integer(cli.mc).add(" samples,")
          .integer(stats.failures).add(" failures\n")
          .add("probe,mean,stddev,min,max\n")
          .add("v(").add(nl.node_name(probes[0])).add("),").num(stats.mean())
          .add(',').num(stats.stddev()).add(',').num(stats.min()).add(',')
          .num(stats.max()).add('\n');
      if (budget_p && budget_p->exhausted()) {
        err.add("mc truncated: ").integer(stats.samples.size()).add(" of ")
            .integer(cli.mc).add(" samples solved\n");
        return 4;
      }
    } else if (d.kind == "op") {
      const auto& op = operating_point();
      if (!op.converged) return 1;
      out.add(an::op_report(nl, op, range));
    } else if (d.kind == "dc") {
      if (d.args.empty())
        throw std::runtime_error(".dc needs a source name");
      auto* src = nl.find_as<dev::VSource>(d.args[0]);
      if (!src)
        throw std::runtime_error("source not found: " + d.args[0]);
      const double start = arg_num(d, 1), stop = arg_num(d, 2),
                   step = arg_num(d, 3);
      // A zero, non-finite or wrong-direction step never reaches stop:
      // the loop below would pin a worker (or allocate unboundedly)
      // until the process dies, beyond the reach of cancel/budget
      // checks.  Reject before building the value grid, and cap the
      // point count so a tiny-but-valid step cannot exhaust memory.
      if (!std::isfinite(start) || !std::isfinite(stop) ||
          !std::isfinite(step) || step == 0.0 ||
          (stop - start) * step < 0.0)
        throw std::runtime_error(
            ".dc needs a finite, nonzero step from start toward stop");
      if (std::abs(stop - start) / std::abs(step) >= kMaxSweepPoints)
        throw std::runtime_error(".dc sweep exceeds 1e6 points");
      print_probe_header(out, nl, "v_sweep", probes);
      lint_verdict_pending = false;
      std::vector<double> values;
      for (double v = start; v <= stop + 0.5 * step; v += step)
        values.push_back(v);
      const auto sweep = an::dc_sweep(
          nl, values,
          [&](double v) { src->set_waveform(dev::Waveform::dc(v)); },
          op_opt);
      range = an::range_analysis(nl, {});
      for (const auto& pt : sweep) {
        if (!pt.op.converged) {
          err.add("sweep point ").num(pt.value).add(" failed: ")
              .add(pt.op.diag.message()).add('\n');
          continue;
        }
        out.num(pt.value);
        for (auto p : probes) out.add(',').num(pt.op.v(p));
        out.add('\n');
      }
    } else if (d.kind == "ac") {
      // .ac dec N fstart fstop
      const auto freqs = dec_grid(d, 0);
      if (!operating_point().converged) return 1;
      an::AcOptions aopt;
      aopt.budget = budget_p;
      const auto ac = an::run_ac_diag(nl, freqs, aopt);
      if (!ac.ok() && !ac.truncated) {
        err.add("ac analysis failed: ").add(ac.diag.message()).add('\n');
        return 1;
      }
      out.add("freq");
      for (auto p : probes)
        out.add(",mag(").add(nl.node_name(p)).add("),phase_deg(")
            .add(nl.node_name(p)).add(')');
      out.add('\n');
      for (std::size_t i = 0; i < ac.solutions.size(); ++i) {
        out.num(freqs[i]);
        for (auto p : probes) {
          const auto v = ac.v(i, p);
          out.add(',').num(std::abs(v)).add(',')
              .num(std::arg(v) * 180.0 / M_PI, 4);
        }
        out.add('\n');
      }
      if (ac.truncated) {
        err.add("ac grid truncated: ").add(ac.diag.message()).add('\n');
        return 4;
      }
    } else if (d.kind == "tran") {
      an::TranOptions t;
      t.dt = arg_num(d, 0);
      t.t_stop = arg_num(d, 1);
      // A zero or negative step never reaches t_stop (the sample
      // vectors grow until the process dies); a non-finite or
      // non-positive stop yields a bare header.
      if (!(t.dt > 0.0 && std::isfinite(t.dt)) ||
          !(t.t_stop > 0.0 && std::isfinite(t.t_stop)))
        throw std::runtime_error(".tran needs finite step > 0 and stop > 0");
      if (t.t_stop / t.dt > kMaxSweepPoints)
        throw std::runtime_error(".tran exceeds 1e6 steps");
      t.temp_k = temp_k;
      t.budget = budget_p;
      if (cli.pss) {
        // Shooting-Newton PSS: the deck's tone fixes the period, the
        // .tran step is the sample-spacing request (snapped coherent).
        an::PssOptions po;
        po.tran.dt = t.dt;
        po.tran.temp_k = temp_k;
        po.budget = budget_p;
        use_lint_verdict();
        const auto r = an::run_pss_shooting(nl, po);
        if (cli.telemetry) err.add(r.telemetry.summary());
        if (cli.tran_stats) out.add(r.telemetry.json()).add('\n');
        if (!r.ok && !r.truncated) {
          err.add("pss failed: ").add(r.diag.message()).add('\n');
          return 1;
        }
        print_rows(out, nl, probes, r.time, r.x);
        if (r.truncated) {
          err.add("pss truncated: ").add(r.diag.message()).add('\n');
          return 4;
        }
        continue;
      }
      an::TranResult res;
      if (cli.ensemble > 1) {
        an::TranEnsembleOptions eo;
        eo.budget = budget_p;
        auto er = an::run_transient_ensemble(
            static_cast<std::size_t>(cli.ensemble),
            [&](std::size_t, ckt::Netlist& snl, an::TranOptions& st) {
              auto sample = spice::parse_netlist(deck_text);
              snl = std::move(*sample.netlist);
              st.dt = t.dt;
              st.t_stop = t.t_stop;
              st.temp_k = t.temp_k;
            },
            eo);
        const auto& et = er.ensemble;
        const std::string mode =
            et.used_ensemble
                ? "lockstep"
                : "per-sample (" + et.fallback_reason + ")";
        err.add("ensemble: ").integer(et.samples).add(" lanes, ")
            .integer(et.blocks).add(" blocks (width ").integer(et.lane_width)
            .add("), ").add(mode).add(", ").integer(et.cohort_splits)
            .add(" splits, ").integer(et.cohort_rejoins).add(" rejoins, ")
            .fixed(et.samples_per_sec, 1).add(" samples/s\n");
        res = std::move(er.results[0]);
      } else {
        use_lint_verdict();
        res = an::run_transient(nl, t);
      }
      if (cli.telemetry) err.add(res.telemetry.summary());
      if (cli.tran_stats)
        out.add(res.telemetry.reuse_stats_json()).add('\n');
      if (!res.ok && !res.truncated) {
        err.add("transient failed: ").add(res.diag.message()).add('\n');
        return 1;
      }
      print_rows(out, nl, probes, res.time, res.x);
      if (res.truncated) {
        err.add("transient truncated: ").add(res.diag.message()).add('\n');
        return 4;
      }
    } else if (d.kind == "noise") {
      // .noise out_node input_src dec N fstart fstop
      if (d.args.size() < 6)
        throw std::runtime_error(
            ".noise out_node input_src dec N fstart fstop");
      // Resolve both names without creating anything: a node made up
      // after lint would be a floating output with all-zero noise.
      an::NoiseOptions nopt;
      nopt.out_p = nl.find_node(d.args[0]);
      if (nopt.out_p == ckt::kInvalidNode)
        throw std::runtime_error("node not found: " + d.args[0]);
      if (!nl.find_as<dev::VSource>(d.args[1]) &&
          !nl.find_as<dev::ISource>(d.args[1]))
        throw std::runtime_error("source not found: " + d.args[1]);
      nopt.input_source = d.args[1];
      nopt.temp_k = temp_k;
      nopt.budget = budget_p;
      const auto freqs = dec_grid(d, 2);
      if (!operating_point().converged) return 1;
      const auto res = an::run_noise_diag(nl, freqs, nopt);
      if (!res.ok() && !res.truncated) {
        err.add("noise analysis failed: ").add(res.diag.message()).add('\n');
        return 1;
      }
      out.add("freq,onoise_V2_per_Hz,inoise_V_per_rtHz\n");
      for (const auto& p : res.points)
        out.num(p.freq_hz).add(',').num(p.s_out).add(',')
            .num(std::sqrt(p.s_in)).add('\n');
      if (res.truncated) {
        err.add("noise grid truncated: ").add(res.diag.message()).add('\n');
        return 4;
      }
    } else {
      err.add("unsupported directive .").add(d.kind).add(" (skipped)\n");
    }
  }
  return 0;
}

// Whole-result memo payload: "<exit>\n<warm>\n<out bytes>\n<out><err>".
std::string encode_result(const DeckResult& r) {
  std::string s = std::to_string(r.exit_code);
  s += '\n';
  s += r.warm ? '1' : '0';
  s += '\n';
  s += std::to_string(r.out.size());
  s += '\n';
  s += r.out;
  s += r.err;
  return s;
}

bool decode_result(const std::string& s, DeckResult& r) {
  std::size_t p = s.find('\n');
  if (p == std::string::npos) return false;
  std::size_t q = s.find('\n', p + 1);
  if (q == std::string::npos) return false;
  std::size_t z = s.find('\n', q + 1);
  if (z == std::string::npos) return false;
  try {
    r.exit_code = std::stoi(s.substr(0, p));
    r.warm = s[p + 1] == '1';
    const std::size_t nout =
        static_cast<std::size_t>(std::stoul(s.substr(q + 1, z - q - 1)));
    if (z + 1 + nout > s.size()) return false;
    r.out = s.substr(z + 1, nout);
    r.err = s.substr(z + 1 + nout);
  } catch (...) {
    return false;
  }
  return true;
}

}  // namespace

std::string options_signature(const DeckOptions& o) {
  std::ostringstream sig;
  sig << "probe=" << o.probe_arg << "|lo=" << o.lint_only
      << "|lj=" << o.lint_json << "|ls=" << o.lint_strict
      << "|rj=" << o.range_json << "|tel=" << o.telemetry
      << "|ts=" << o.tran_stats << "|ens=" << o.ensemble
      << "|pss=" << o.pss << "|mc=" << o.mc << "|seed=" << o.mc_seed
      << "|dis=";
  for (const auto& d : o.lint_disable) sig << d << ',';
  return sig.str();
}

DeckResult run_deck(const std::string& deck_text, const DeckOptions& opt,
                    CacheRegistry* registry) {
  DeckResult r;
  // A job under any budget limit can truncate at a wall-clock-dependent
  // point; its bytes are not a function of (deck, options), so it never
  // touches the whole-result memo.  A cancel-only budget is fine: a
  // fired cancel always surfaces as a non-zero exit, and only exit-0
  // results are stored.
  const bool budget_limited =
      opt.budget_ms > 0.0 ||
      (opt.budget && (opt.budget->max_wall_ms > 0.0 ||
                      opt.budget->max_newton_iterations > 0 ||
                      opt.budget->max_steps > 0));
  std::string key;
  if (registry && opt.use_result_cache && !budget_limited) {
    key = options_signature(opt);
    key += '\x1f';
    key += deck_text;
    if (const auto hit = registry->find_result(key)) {
      if (decode_result(*hit, r)) {
        r.result_cached = true;
        return r;
      }
      r = DeckResult{};
    }
  }
  Sink out, err;
  int code = 1;
  try {
    code = run_deck_impl(deck_text, opt, registry, out, err, r.warm);
  } catch (const std::exception& e) {
    err.add("error: ").add(e.what()).add('\n');
    code = 1;
  }
  r.exit_code = code;
  r.out = out.take();
  r.err = err.take();
  if (!key.empty() && code == 0)
    registry->store_result(key,
                           std::make_shared<const std::string>(encode_result(r)));
  return r;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  out = ss.str();
  return true;
}

BatchResult run_batch(const std::vector<std::string>& paths,
                      const DeckOptions& opt, CacheRegistry& registry,
                      std::string& out, std::string& err) {
  BatchResult b;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    out += "* job " + std::to_string(i) + ": " + paths[i] + "\n";
    std::string text;
    if (!read_file(paths[i], text)) {
      err += "error: cannot read " + paths[i] + "\n";
      b.exit_code = std::max(b.exit_code, 2);
      continue;
    }
    const DeckResult r = run_deck(text, opt, &registry);
    out += r.out;
    err += r.err;
    ++b.jobs;
    if (r.warm) ++b.warm_jobs;
    if (r.result_cached) ++b.cached_jobs;
    b.exit_code = std::max(b.exit_code, r.exit_code);
  }
  return b;
}

}  // namespace msim::serve
