#include "spicefmt/parser.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cctype>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "devices/bjt.h"
#include "devices/controlled.h"
#include "devices/diode.h"
#include "devices/mos_switch.h"
#include "devices/mosfet.h"
#include "devices/passive.h"
#include "devices/sources.h"

namespace msim::spice {
namespace {

[[noreturn]] void fail(int line, const std::string& msg) {
  throw std::runtime_error("spice parse error, line " +
                           std::to_string(line) + ": " + msg);
}

char lower(char c) { return c >= 'A' && c <= 'Z' ? char(c - 'A' + 'a') : c; }

// One SPICE number with its SI suffix ("2.2k", "10u", "5meg"); other
// tails ("5v", "10ohm") are tolerated as units.  std::from_chars reads
// the common decimal forms without allocating.  Forms it rejects or
// could read differently from strtod go through std::stod: a leading
// '+', hex ("0x10" stops at the 'x'), inf/nan, and results strtod flags
// as out of range (subnormal, or nonzero digits read as 0).  Every
// accepted token thus yields std::stod's double.
double number(std::string_view tok) {
  const char* const end = tok.data() + tok.size();
  double v = 0.0;
  auto [stop, ec] = std::from_chars(tok.data(), end, v);
  std::string slow;
  if (ec != std::errc() || (stop != end && lower(*stop) == 'x') ||
      !(std::isnormal(v) || std::all_of(tok.data(), stop, [](char c) {
          return c < '1' || c > '9';
        }))) {
    slow.assign(tok);
    std::transform(slow.begin(), slow.end(), slow.begin(), lower);
    std::size_t pos = 0;
    try {
      v = std::stod(slow, &pos);
    } catch (const std::exception&) {
      throw std::runtime_error("bad number: " + std::string(tok));
    }
    stop = slow.data() + pos;
    tok = slow;
  }
  const std::string_view suffix(stop, tok.data() + tok.size() - stop);
  if (suffix.empty()) return v;
  char pre[3] = {};
  for (std::size_t i = 0; i < 3 && i < suffix.size(); ++i)
    pre[i] = lower(suffix[i]);
  if (std::string_view(pre, 3) == "meg") return v * 1e6;
  if (std::string_view(pre, 3) == "mil") return v * 25.4e-6;
  static constexpr double kScale[] = {1e-15, 1e-12, 1e-9, 1e-6,
                                      1e-3,  1e3,   1e9,  1e12};
  const auto k = std::string_view("fpnumkgt").find(pre[0]);
  return k == std::string_view::npos ? v : v * kScale[k];
}

// number() with the source line attached to the error, matching the
// other parse diagnostics.
double number_at(std::string_view tok, int line) {
  try {
    return number(tok);
  } catch (const std::exception& e) {
    fail(line, e.what());
  }
}

using Toks = std::span<const std::string_view>;
using Params = std::map<std::string_view, double, std::less<>>;

// ---- parameter expressions -------------------------------------------
// .param cards define named values; any token written as {expr} is
// evaluated with +-*/, parentheses, SI-suffixed numbers and parameter
// references.  Grammar: expr := term (('+'|'-') term)* ;
// term := factor (('*'|'/') factor)* ; factor := number | name | (expr)
// | '-' factor.
class ExprEval {
 public:
  ExprEval(const Params& params, std::string_view text, int line)
      : params_(params), s_(text), line_(line) {}

  double eval() {
    const double v = expr();
    if (!at_end()) fail("trailing junk in {");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    spice::fail(line_, what + std::string(s_) + "}");
  }
  bool at_end() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
    return pos_ == s_.size();
  }
  bool take(char c) {
    if (at_end() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  double expr() {
    for (double v = term();;) {
      if (take('+')) v += term();
      else if (take('-')) v -= term();
      else return v;
    }
  }
  double term() {
    for (double v = factor();;) {
      if (take('*')) v *= factor();
      else if (take('/')) v /= factor();
      else return v;
    }
  }
  double factor() {
    if (take('(')) {
      const double v = expr();
      if (!take(')')) fail("missing ')' in {");
      return v;
    }
    if (take('-')) return -factor();
    // Number or identifier token.
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == '_' ||
            ((s_[pos_] == '+' || s_[pos_] == '-') && pos_ > start &&
             (s_[pos_ - 1] == 'e' || s_[pos_ - 1] == 'E'))))
      ++pos_;
    if (pos_ == start) fail("bad expression {");
    const std::string_view tok = s_.substr(start, pos_ - start);
    if (std::isdigit(static_cast<unsigned char>(tok[0])) || tok[0] == '.')
      return number(tok);
    const auto it = params_.find(tok);
    if (it == params_.end())
      spice::fail(line_, "unknown parameter '" + std::string(tok) + "'");
    return it->second;
  }

  const Params& params_;
  std::string_view s_;
  int line_;
  std::size_t pos_ = 0;
};

// A .model card resolved once into every device family's parameters
// (the card's type picks only the polarity): a key lands wherever a
// family knows it, so an element naming a model of another family reads
// the keys the two share, as per-device lookups by name would.
struct Model {
  dev::MosParams mos;
  dev::BjtParams bjt;
  dev::DiodeParams diode;
  double ron = 100.0, roff = 1e12;

  void set(std::string_view k, double v) {
    if (k == "vto") mos.vth0 = v;
    else if (k == "kp") mos.kp = v;
    else if (k == "lambda") mos.lambda = v;
    else if (k == "gamma") mos.gamma = v;
    else if (k == "phi") mos.phi = v;
    else if (k == "cox") mos.cox = v;
    else if (k == "kf") mos.kf = bjt.kf = diode.kf = v;
    else if (k == "af") mos.af = bjt.af = diode.af = v;
    else if (k == "n") mos.n_sub = diode.n = v;
    else if (k == "ld") mos.ld = v;
    else if (k == "tcv") mos.vth_tc = v;
    else if (k == "bex") mos.mu_exp = v;
    else if (k == "is") bjt.is = diode.is = v;
    else if (k == "bf") bjt.beta_f = v;
    else if (k == "br") bjt.beta_r = v;
    else if (k == "vaf") bjt.vaf = v;
    else if (k == "xti") bjt.xti = diode.xti = v;
    else if (k == "xtb") bjt.xtb = v;
    else if (k == "eg") bjt.eg = diode.eg = v;
    else if (k == "ron") ron = v;
    else if (k == "roff") roff = v;
  }
};

struct Subckt {
  std::vector<std::string_view> ports;
  std::size_t first, last;  // body cards [first, last)
};

// Where a card is being emitted: the top level, or one subcircuit
// instance (device/node name prefix, formal ports bound to the caller's
// nodes, and the enclosing instance for cycle detection).
struct Scope {
  std::string prefix;
  std::vector<std::pair<std::string_view, ckt::NodeId>> ports;
  const Subckt* sub = nullptr;
  const Scope* parent = nullptr;
};

// One logical (continuation-joined) card: its token range in the
// builder's token array and the source line it starts on.
struct Card {
  std::size_t begin, end;
  int line;
};

class Builder {
 public:
  explicit Builder(const std::string& text) {
    result_.netlist = std::make_unique<ckt::Netlist>();
    lex(text);
    collect_definitions();
  }

  ParseResult build() {
    const Scope top;
    for (std::size_t i = 0; i < cards_.size(); ++i)
      if (!skip_[i]) emit_card(cards_[i], top);
    // Second pass: current-controlled sources that referenced sources
    // defined later in the file.
    for (const auto& [card, scope] : deferred_) emit_card(*card, scope, true);
    return std::move(result_);
  }

 private:
  // The one text pass: the title line verbatim, then every card's text
  // lower-cased into text_ and split into string_view tokens (toks_)
  // that both parser passes share.
  void lex(const std::string& src) {
    text_.reserve(src.size());
    std::vector<std::size_t> starts;  // each card's text offset in text_
    bool first = true, title_last = false;
    int lineno = 0;
    for (std::size_t pos = 0; pos < src.size();) {
      ++lineno;
      const char* b = src.data() + pos;
      const char* e = src.data() + std::min(src.find('\n', pos), src.size());
      pos = static_cast<std::size_t>(e - src.data()) + 1;
      // Strip inline comments (";" or "$ "), then trim.
      const std::string_view full(b, static_cast<std::size_t>(e - b));
      e = b + std::min({full.find(';'), full.find("$ "), full.size()});
      auto blank = [](char c) { return c == ' ' || c == '\t' || c == '\r'; };
      while (b != e && blank(*b)) ++b;
      while (e != b && blank(e[-1])) --e;
      std::string_view raw(b, static_cast<std::size_t>(e - b));
      if (first) {  // a non-blank first line is the title, verbatim
        first = false;
        title_last = !raw.empty();
        result_.title = raw;
        continue;
      }
      if (raw.empty() || raw[0] == '*') continue;  // blank or comment card
      if (raw[0] == '+') {
        raw.remove_prefix(1);
        if (title_last) {
          (result_.title += ' ') += raw;
          continue;
        }
        if (cards_.empty()) fail(lineno, "continuation with no prior card");
        text_ += ' ';  // joins the previous card's text
      } else {
        title_last = false;
        starts.push_back(text_.size());
        cards_.push_back({0, 0, lineno});
      }
      const std::size_t at = text_.size();
      text_ += raw;
      std::transform(text_.begin() + at, text_.end(), text_.begin() + at,
                     lower);
    }
    // Card texts are adjacent in text_; tokenize each over its own range.
    starts.push_back(text_.size());
    toks_.reserve(text_.size() / 4);
    for (std::size_t i = 0; i < cards_.size(); ++i) {
      cards_[i].begin = toks_.size();
      tokenize(std::string_view(text_).substr(starts[i],
                                              starts[i + 1] - starts[i]));
      cards_[i].end = toks_.size();
    }
    skip_.assign(cards_.size(), false);
  }

  // Splits on whitespace, commas, '=' and parentheses; {expression}
  // blocks are kept as single tokens.
  void tokenize(std::string_view s) {
    enum : unsigned char { kText, kBreak, kOpen, kClose };
    static constexpr auto kClass = [] {
      std::array<unsigned char, 256> t{};
      for (unsigned char c : std::string_view(" \t\n\v\f\r,()=")) t[c] = kBreak;
      t['{'] = kOpen;
      t['}'] = kClose;
      return t;
    }();
    std::size_t start = 0;
    int brace_depth = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      const unsigned char k = kClass[static_cast<unsigned char>(s[i])];
      if (k == kOpen) ++brace_depth;
      if (k == kClose) --brace_depth;
      if (k == kBreak && brace_depth == 0) {
        if (i > start) toks_.push_back(s.substr(start, i - start));
        start = i + 1;
      }
    }
    if (s.size() > start) toks_.push_back(s.substr(start));
  }

  Toks tokens(const Card& c) const {
    return Toks(toks_).subspan(c.begin, c.end - c.begin);
  }

  // Records .param, .model and .subckt definitions; marks their cards
  // consumed.
  void collect_definitions() {
    for (std::size_t i = 0; i < cards_.size(); ++i) {
      const int line = cards_[i].line;
      const Toks toks = tokens(cards_[i]);
      if (toks.empty()) continue;
      if (toks[0] == ".param") {
        // .param name value [name value ...]; values may reference
        // previously defined parameters via {..}.
        for (std::size_t k = 1; k + 1 < toks.size(); k += 2)
          params_[toks[k]] = resolve(toks[k + 1], line);
        skip_[i] = true;
      } else if (toks[0] == ".model") {
        if (toks.size() < 3) fail(line, ".model needs name and type");
        Model m;
        m.mos.polarity = toks[2] == "pmos" ? dev::MosPolarity::kPmos
                                           : dev::MosPolarity::kNmos;
        m.bjt.polarity = toks[2] == "pnp" ? dev::BjtPolarity::kPnp
                                          : dev::BjtPolarity::kNpn;
        std::optional<double> tox;
        for (std::size_t k = 3; k + 1 < toks.size(); k += 2) {
          const double v = resolve(toks[k + 1], line);
          if (toks[k] == "tox")
            tox = v;
          else
            m.set(toks[k], v);
        }
        m.mos.vth0 = std::abs(m.mos.vth0);
        if (tox) m.mos.cox = 3.45e-11 / *tox;
        models_[toks[1]] = m;
        skip_[i] = true;
      } else if (toks[0] == ".subckt") {
        if (toks.size() < 2) fail(line, ".subckt needs a name");
        Subckt sub{{toks.begin() + 2, toks.end()}, i + 1, 0};
        skip_[i] = true;
        std::size_t j = i + 1;
        for (; j < cards_.size(); ++j) {
          const Toks inner = tokens(cards_[j]);
          skip_[j] = true;
          if (!inner.empty() && inner[0] == ".ends") break;
        }
        if (j == cards_.size()) fail(line, "missing .ends");
        sub.last = j;
        subckts_[toks[1]] = std::move(sub);
      }
    }
  }

  // Evaluates a token: "{expr}" through the expression engine, plain
  // numbers through number().
  double resolve(std::string_view tok, int line) {
    if (!tok.empty() && tok.front() == '{') {
      if (tok.back() != '}')
        fail(line, "unterminated { in " + std::string(tok));
      return ExprEval(params_, tok.substr(1, tok.size() - 2), line).eval();
    }
    return number_at(tok, line);
  }

  ckt::NodeId node(std::string_view name, const Scope& s) {
    // The last binding of a repeated formal port wins.
    for (auto it = s.ports.rbegin(); it != s.ports.rend(); ++it)
      if (it->first == name) return it->second;
    if (name == "0" || name == "gnd") return ckt::kGround;
    if (s.prefix.empty()) return result_.netlist->node(name);
    return result_.netlist->node(std::string(s.prefix).append(name));
  }

  // Parses source waveform tokens starting at index `i`.
  dev::Waveform parse_waveform(Toks toks, std::size_t i, int line) {
    dev::Waveform w = dev::Waveform::dc(0.0);
    double ac_mag = 0.0, ac_phase = 0.0;
    bool have_ac = false;
    auto is_value = [](std::string_view t) {
      return std::isdigit(static_cast<unsigned char>(t[0])) || t[0] == '-' ||
             t[0] == '.' || t[0] == '{';
    };
    auto rest = [&] {
      std::vector<double> a;
      for (++i; i < toks.size(); ++i) a.push_back(resolve(toks[i], line));
      return a;
    };
    while (i < toks.size()) {
      const std::string_view t = toks[i];
      if (t == "dc") {
        if (i + 1 >= toks.size()) fail(line, "dc needs a value");
        w = dev::Waveform::dc(resolve(toks[i + 1], line));
        i += 2;
      } else if (t == "ac") {
        have_ac = true;
        ac_mag = 1.0;
        if (++i < toks.size() && is_value(toks[i])) {
          ac_mag = resolve(toks[i++], line);
          if (i < toks.size() && is_value(toks[i]))
            ac_phase = resolve(toks[i++], line) * M_PI / 180.0;
        }
      } else if (t == "sin") {
        const auto a = rest();
        if (a.size() < 3) fail(line, "sin needs offset ampl freq");
        w = dev::Waveform::sine(a[0], a[1], a[2], a.size() > 3 ? a[3] : 0.0,
                                a.size() > 4 ? a[4] : 0.0);
      } else if (t == "pulse") {
        const auto a = rest();
        if (a.size() < 7) fail(line, "pulse needs 7 values");
        w = dev::Waveform::pulse(a[0], a[1], a[2], a[3], a[4], a[5], a[6]);
      } else if (t == "pwl") {
        std::vector<double> ts, vs;
        for (++i; i + 1 < toks.size(); i += 2) {
          ts.push_back(resolve(toks[i], line));
          vs.push_back(resolve(toks[i + 1], line));
        }
        if (ts.empty()) fail(line, "pwl needs time/value pairs");
        w = dev::Waveform::pwl(std::move(ts), std::move(vs));
        break;
      } else {
        // Bare number or {expression}: DC value.
        w = dev::Waveform::dc(resolve(t, line));
        ++i;
      }
    }
    if (have_ac) w.with_ac(ac_mag, ac_phase);
    return w;
  }

  void emit_card(const Card& c, const Scope& scope, bool deferred = false) {
    const Toks toks = tokens(c);
    if (toks.empty()) return;
    const std::string head(toks[0]);
    auto& nl = *result_.netlist;

    if (head[0] == '.') {
      if (head == ".end") return;
      if (head == ".temp") {
        if (toks.size() > 1) result_.temp_c = number_at(toks[1], c.line);
        return;
      }
      AnalysisDirective d;
      d.kind = toks[0].substr(1);
      d.args.assign(toks.begin() + 1, toks.end());
      result_.directives.push_back(std::move(d));
      return;
    }

    const std::string name = scope.prefix + head;
    auto nd = [&](std::size_t i) {
      if (i >= toks.size()) fail(c.line, "missing node on " + head);
      return node(toks[i], scope);
    };
    auto val = [&](std::size_t i) {
      if (i >= toks.size()) fail(c.line, "missing value on " + head);
      return resolve(toks[i], c.line);
    };
    auto kw = [&](std::string_view key, double dflt) {
      for (std::size_t i = 3; i + 1 < toks.size(); ++i)
        if (toks[i] == key) return resolve(toks[i + 1], c.line);
      return dflt;
    };

    ckt::Device* dev = nullptr;
    switch (head[0]) {
      case 'r': {
        auto* r = nl.add<dev::Resistor>(name, nd(1), nd(2), val(3));
        const double tc1 = kw("tc1", 0.0), tc2 = kw("tc2", 0.0);
        if (tc1 != 0.0 || tc2 != 0.0) r->set_tc(tc1, tc2);
        dev = r;
        break;
      }
      case 'c':
        dev = nl.add<dev::Capacitor>(name, nd(1), nd(2), val(3));
        break;
      case 'l':
        dev = nl.add<dev::Inductor>(name, nd(1), nd(2), val(3));
        break;
      case 'v':
        dev = nl.add<dev::VSource>(name, nd(1), nd(2),
                                   parse_waveform(toks, 3, c.line));
        break;
      case 'i':
        dev = nl.add<dev::ISource>(name, nd(1), nd(2),
                                   parse_waveform(toks, 3, c.line));
        break;
      case 'e':
        dev = nl.add<dev::Vcvs>(name, nd(1), nd(2), nd(3), nd(4), val(5));
        break;
      case 'g':
        dev = nl.add<dev::Vccs>(name, nd(1), nd(2), nd(3), nd(4), val(5));
        break;
      case 'f':
      case 'h': {
        if (!deferred) {  // the controlling source may come later
          deferred_.push_back({&c, {scope.prefix, scope.ports}});
          break;
        }
        if (toks.size() < 4) fail(c.line, head + " needs n+ n- vsense gain");
        const auto np = nd(1), nn = nd(2);
        // Controlling source: resolve within the same scope first.
        auto* sense = nl.find_as<dev::VSource>(scope.prefix +
                                               std::string(toks[3]));
        if (!sense) sense = nl.find_as<dev::VSource>(toks[3]);
        if (!sense)
          fail(c.line,
               "controlling source " + std::string(toks[3]) + " not found");
        if (toks.size() < 5) fail(c.line, "missing gain on " + head);
        const double gain = number_at(toks[4], c.line);
        if (head[0] == 'f')
          dev = nl.add<dev::Cccs>(name, np, nn, sense, gain);
        else
          dev = nl.add<dev::Ccvs>(name, np, nn, sense, gain);
        break;
      }
      case 'd': {
        if (toks.size() < 4) fail(c.line, "diode needs model");
        auto params = model(toks[3], c.line).diode;
        params.area = kw("area", 1.0);
        dev = nl.add<dev::Diode>(name, nd(1), nd(2), params);
        break;
      }
      case 'q': {
        if (toks.size() < 5) fail(c.line, "bjt needs c b e model");
        auto params = model(toks[4], c.line).bjt;
        params.area = kw("area", 1.0);
        dev = nl.add<dev::Bjt>(name, nd(1), nd(2), nd(3), params);
        break;
      }
      case 'm': {
        if (toks.size() < 6) fail(c.line, "mosfet needs d g s b model");
        const auto& params = model(toks[5], c.line).mos;
        const double w = kw("w", 10e-6), l = kw("l", 2e-6);
        dev = nl.add<dev::Mosfet>(name, nd(1), nd(2), nd(3), nd(4), params,
                                  w, l);
        break;
      }
      case 's': {
        if (toks.size() < 4) fail(c.line, "switch needs model");
        const auto& m = model(toks[3], c.line);
        const bool on = std::find(toks.begin(), toks.end(), "on") !=
                        toks.end();
        dev = nl.add<dev::MosSwitch>(name, nd(1), nd(2), m.ron, m.roff, on);
        break;
      }
      case 'x':
        emit_instance(toks, c.line, name, scope);
        break;
      default:
        fail(c.line, "unknown element '" + head + "'");
    }
    if (dev) dev->set_source_line(c.line);
  }

  // Flattens one X card: binds the formal ports to the caller's nodes
  // and emits the body under the instance's name prefix.
  void emit_instance(Toks toks, int line, const std::string& name,
                     const Scope& scope) {
    if (toks.size() < 2) fail(line, "x card needs subckt name");
    const std::string sub_name(toks.back());
    const auto it = subckts_.find(toks.back());
    if (it == subckts_.end()) fail(line, "unknown subckt " + sub_name);
    const Subckt& sub = it->second;
    if (toks.size() - 2 != sub.ports.size())
      fail(line, "port count mismatch on " + std::string(toks[0]));
    for (const Scope* s = &scope; s; s = s->parent)
      if (s->sub == &sub)
        fail(line, "recursive instantiation of subckt " + sub_name);
    Scope inner{name + ".", {}, &sub, &scope};
    for (std::size_t k = 0; k < sub.ports.size(); ++k)
      inner.ports.emplace_back(sub.ports[k], node(toks[1 + k], scope));
    for (std::size_t b = sub.first; b < sub.last; ++b)
      emit_card(cards_[b], inner);
  }

  const Model& model(std::string_view name, int line) {
    const auto it = models_.find(name);
    if (it == models_.end()) fail(line, "unknown model " + std::string(name));
    return it->second;
  }

  std::string text_;  // lower-cased card text; toks_ view into it
  std::vector<std::string_view> toks_;
  std::vector<Card> cards_;
  std::vector<bool> skip_;  // per card: consumed by a definition
  Params params_;
  std::map<std::string_view, Model, std::less<>> models_;
  std::map<std::string_view, Subckt, std::less<>> subckts_;
  // F/H cards with their scope (prefix and ports), emitted last.
  std::vector<std::pair<const Card*, Scope>> deferred_;
  ParseResult result_;
};

}  // namespace

double parse_value(const std::string& token) { return number(token); }

ParseResult parse_netlist(const std::string& text) {
  return Builder(text).build();
}

ParseResult parse_netlist_file(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("cannot open netlist file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_netlist(ss.str());
}

}  // namespace msim::spice
