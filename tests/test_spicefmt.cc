// SPICE-format parser/writer tests: value suffixes, element cards,
// waveforms, models, subcircuit flattening, analysis directives, writer
// round-trip and error reporting.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/ac.h"
#include "analysis/op.h"
#include "analysis/transient.h"
#include "devices/mosfet.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "spicefmt/parser.h"
#include "spicefmt/writer.h"

namespace {

using namespace msim;
using spice::parse_netlist;
using spice::parse_value;

TEST(SpiceValue, SiSuffixes) {
  EXPECT_DOUBLE_EQ(parse_value("1k"), 1e3);
  EXPECT_DOUBLE_EQ(parse_value("2.2u"), 2.2e-6);
  EXPECT_DOUBLE_EQ(parse_value("5meg"), 5e6);
  EXPECT_DOUBLE_EQ(parse_value("10m"), 10e-3);
  EXPECT_DOUBLE_EQ(parse_value("100n"), 100e-9);
  EXPECT_DOUBLE_EQ(parse_value("3p"), 3e-12);
  EXPECT_DOUBLE_EQ(parse_value("1.5f"), 1.5e-15);
  EXPECT_DOUBLE_EQ(parse_value("2g"), 2e9);
  EXPECT_DOUBLE_EQ(parse_value("-0.7"), -0.7);
  EXPECT_DOUBLE_EQ(parse_value("1e-3"), 1e-3);
  EXPECT_DOUBLE_EQ(parse_value("5v"), 5.0);  // unit tail tolerated
  EXPECT_THROW(parse_value("abc"), std::runtime_error);
}

TEST(SpiceParser, DividerOperatingPoint) {
  const char* src = R"(divider test
v1 in 0 dc 10
r1 in mid 6k
r2 mid 0 4k
.op
.end
)";
  auto r = parse_netlist(src);
  EXPECT_EQ(r.title, "divider test");
  ASSERT_EQ(r.directives.size(), 1u);
  EXPECT_EQ(r.directives[0].kind, "op");
  const auto op = an::solve_op(*r.netlist);
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(op.v(*r.netlist, "mid"), 4.0, 1e-6);
}

TEST(SpiceParser, ContinuationAndComments) {
  const char* src = R"(title
* a comment card
v1 in 0
+ dc 5 ; trailing comment
r1 in 0 1k
.end
)";
  auto r = parse_netlist(src);
  auto* v1 = r.netlist->find_as<dev::VSource>("v1");
  ASSERT_NE(v1, nullptr);
  EXPECT_DOUBLE_EQ(v1->waveform().dc_value(), 5.0);
}

TEST(SpiceParser, SinSourceTransient) {
  const char* src = R"(sine into rc
v1 in 0 sin(0 1 1k)
r1 in out 1k
c1 out 0 100n
.tran 1u 2m
.end
)";
  auto r = parse_netlist(src);
  ASSERT_EQ(r.directives.size(), 1u);
  EXPECT_EQ(r.directives[0].kind, "tran");
  an::TranOptions t;
  t.t_stop = 2e-3;
  t.dt = 2e-6;
  const auto res = an::run_transient(*r.netlist, t);
  ASSERT_TRUE(res.ok);
  const auto out = r.netlist->node("out");
  double vmax = 0.0;
  for (const auto& x : res.x)
    vmax = std::max(vmax, x[static_cast<std::size_t>(out) - 1]);
  // One pole at 1.59 kHz: the 1 kHz sine passes mostly unattenuated.
  EXPECT_GT(vmax, 0.7);
  EXPECT_LT(vmax, 1.0);
}

TEST(SpiceParser, AcSourceAndControlledSources) {
  const char* src = R"(vcvs chain
vin a 0 dc 0 ac 1
e1 b 0 a 0 4
g1 0 c b 0 1m
rl c 0 2k
.end
)";
  auto r = parse_netlist(src);
  ASSERT_TRUE(an::solve_op(*r.netlist).converged);
  const auto ac = an::run_ac(*r.netlist, {1e3});
  const auto c = r.netlist->node("c");
  // |v(c)| = 4 * 1mS * 2k = 8 (g injects into c with p=0).
  EXPECT_NEAR(std::abs(ac.v(0, c)), 8.0, 1e-6);
}

TEST(SpiceParser, MosfetModelCard) {
  const char* src = R"(common source
.model mynmos nmos vto=0.75 kp=80u lambda=0.03 gamma=0.8 phi=0.7
vdd vdd 0 3
vg g 0 1.0
rl vdd d 10k
m1 d g 0 0 mynmos w=100u l=2u
.end
)";
  auto r = parse_netlist(src);
  auto* m = r.netlist->find_as<dev::Mosfet>("m1");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->width(), 100e-6);
  EXPECT_DOUBLE_EQ(m->params().vth0, 0.75);
  const auto op = an::solve_op(*r.netlist);
  ASSERT_TRUE(op.converged);
  EXPECT_TRUE(m->op().saturated);
  EXPECT_GT(m->op().id, 10e-6);
}

TEST(SpiceParser, BjtAndDiodeModels) {
  const char* src = R"(junctions
.model qp pnp is=2e-17 bf=12
.model d1n d is=1e-15 n=1.0
i1 0 e 10u
q1 0 0 e qp area=8
i2 0 a 1u
d1 a 0 d1n
.end
)";
  auto r = parse_netlist(src);
  const auto op = an::solve_op(*r.netlist);
  ASSERT_TRUE(op.converged);
  // Diode-connected PNP at 10 uA with 8x area: Vbe ~ 0.6 V.
  EXPECT_GT(op.v(*r.netlist, "e"), 0.5);
  EXPECT_LT(op.v(*r.netlist, "e"), 0.75);
  EXPECT_GT(op.v(*r.netlist, "a"), 0.4);
}

TEST(SpiceParser, CurrentControlledSources) {
  const char* src = R"(cccs forward reference
f1 0 out vsense 2
rl out 0 1k
vsense a 0 dc 1
rs a 0 1k
.end
)";
  auto r = parse_netlist(src);
  const auto op = an::solve_op(*r.netlist);
  ASSERT_TRUE(op.converged);
  // i(vsense) = -1 mA; F injects 2*i from 0 into out.
  EXPECT_NEAR(op.v(*r.netlist, "out"), -2.0, 1e-6);
}

TEST(SpiceParser, SubcktFlattening) {
  const char* src = R"(hierarchy
.subckt divider top bot mid
r1 top mid 1k
r2 mid bot 1k
.ends
v1 in 0 dc 8
xa in 0 m1 divider
xb m1 0 m2 divider
.end
)";
  auto r = parse_netlist(src);
  const auto op = an::solve_op(*r.netlist);
  ASSERT_TRUE(op.converged);
  // xa divides 8 V; its lower half is loaded by xb (2k to ground):
  // m1 = 8 * (1k||2k) / (1k + (1k||2k)) = 8 * 0.667k/1.667k = 3.2 V.
  EXPECT_NEAR(op.v(*r.netlist, "m1"), 3.2, 1e-3);
  EXPECT_NEAR(op.v(*r.netlist, "m2"), 1.6, 1e-3);
  // Internal devices got prefixed names.
  EXPECT_NE(r.netlist->find("xa.r1"), nullptr);
  EXPECT_NE(r.netlist->find("xb.r2"), nullptr);
}

TEST(SpiceParser, NestedSubckt) {
  const char* src = R"(nested
.subckt unit a b
r1 a b 1k
.ends
.subckt pair x y
xu1 x m unit
xu2 m y unit
.ends
v1 in 0 dc 2
xp in 0 pair
.end
)";
  auto r = parse_netlist(src);
  const auto op = an::solve_op(*r.netlist);
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(op.v(*r.netlist, "xp.m"), 1.0, 1e-6);
}

TEST(SpiceParser, SwitchCard) {
  const char* src = R"(switch
.model s1m sw ron=100 roff=1e12
v1 in 0 dc 1
s1 in out s1m on
rl out 0 900
.end
)";
  auto r = parse_netlist(src);
  const auto op = an::solve_op(*r.netlist);
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(op.v(*r.netlist, "out"), 0.9, 1e-6);
}

TEST(SpiceParser, TempDirective) {
  const char* src = R"(temp
.temp 85
r1 a 0 1k
v1 a 0 1
.end
)";
  auto r = parse_netlist(src);
  EXPECT_DOUBLE_EQ(r.temp_c, 85.0);
}

TEST(SpiceParser, ErrorsCarryLineNumbers) {
  const char* bad = "title\nr1 a 0\n.end\n";  // missing value
  try {
    parse_netlist(bad);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  try {
    parse_netlist("t\nr1 a 0 1k\nr2 a 0 bogus\n.end\n");
    FAIL() << "expected bad-number error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bad number"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  }
  EXPECT_THROW(parse_netlist("t\nz1 a 0 1k\n"), std::runtime_error);
  EXPECT_THROW(parse_netlist("t\nm1 d g s b nomodel w=1u l=1u\n"),
               std::runtime_error);
  EXPECT_THROW(parse_netlist("t\n.subckt foo a\nr1 a 0 1\n"),
               std::runtime_error);  // missing .ends
}

TEST(SpiceParser, RecursiveSubcktThrowsWithLine) {
  // A subcircuit that instantiates itself, directly or through another,
  // is refused at the X card that closes the cycle.
  const struct {
    const char* deck;
    const char* what;
  } cases[] = {
      {"t\n.subckt a p q\nx1 p q a\n.ends\nx0 n1 0 a\n",
       "spice parse error, line 3: recursive instantiation of subckt a"},
      {"t\n.subckt a p q\nxb p q b\n.ends\n.subckt b p q\nxa p q a\n"
       ".ends\nx0 n1 0 a\n",
       "spice parse error, line 6: recursive instantiation of subckt a"},
      {"t\n.subckt b p q\nxa p q a\n.ends\n.subckt a p q\nr1 p q 1k\n"
       "xb p q b\n.ends\nx0 n1 0 b\n",
       "spice parse error, line 7: recursive instantiation of subckt b"},
  };
  for (const auto& c : cases) {
    try {
      parse_netlist(c.deck);
      ADD_FAILURE() << "no error for deck:\n" << c.deck;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), c.what) << c.deck;
    }
  }
  // Reusing one subcircuit twice under another is not a cycle.
  const auto r = parse_netlist(
      "t\n.subckt u a b\nr1 a b 1k\n.ends\n.subckt w a b\nx1 a m u\n"
      "x2 m b u\n.ends\nx0 n1 0 w\n");
  EXPECT_NE(r.netlist->find("x0.x2.r1"), nullptr);
}

TEST(SpiceParser, ContinuationLinesAreCaseInsensitive) {
  // Continuation text is lower-cased like the card it extends.
  const auto r = parse_netlist("t\nV1 A 0\n+ DC 5 AC 1\nR1 A 0 1K\n");
  auto* v1 = r.netlist->find_as<dev::VSource>("v1");
  ASSERT_NE(v1, nullptr);
  EXPECT_DOUBLE_EQ(v1->waveform().dc_value(), 5.0);
  EXPECT_DOUBLE_EQ(v1->waveform().ac_mag(), 1.0);
}

TEST(SpiceWriter, RoundTripPreservesBehaviour) {
  const char* src = R"(round trip
.model mn nmos vto=0.75 kp=80u
vdd vdd 0 3
vg g 0 dc 1 ac 1
rl vdd d 10k
m1 d g 0 0 mn w=100u l=2u
c1 d 0 1p
.end
)";
  auto r1 = parse_netlist(src);
  ASSERT_TRUE(an::solve_op(*r1.netlist).converged);
  const auto d1 = r1.netlist->node("d");
  const auto ac1 = an::run_ac(*r1.netlist, {1e3});
  const double g1 = std::abs(ac1.v(0, d1));

  // Serialize and re-parse.
  const std::string text = spice::write_netlist(*r1.netlist, "rt");
  auto r2 = parse_netlist(text);
  ASSERT_TRUE(an::solve_op(*r2.netlist).converged);
  const auto d2 = r2.netlist->node("d");
  const auto ac2 = an::run_ac(*r2.netlist, {1e3});
  EXPECT_NEAR(std::abs(ac2.v(0, d2)), g1, g1 * 1e-6);
}

// Sine, pulse and PWL sources survive write -> parse: same shape, same
// arguments and the same value at every probed time.  DC/AC sources
// keep their `dc <v> ac <m>` cards.
TEST(SpiceWriter, TransientWaveformsRoundTrip) {
  ckt::Netlist nl;
  const auto a = nl.node("a"), b = nl.node("b");
  nl.add<dev::VSource>("Vs", a, ckt::kGround,
                       dev::Waveform::sine(0.1, 0.3, 1e3).with_ac(0.5));
  nl.add<dev::VSource>("Vd", b, a,
                       dev::Waveform::sine(0.0, -0.25, 2e3, 1e-4, 50.0));
  nl.add<dev::ISource>("Ip", a, ckt::kGround,
                       dev::Waveform::pulse(0.0, 1e-3, 1e-6, 2e-6, 3e-6,
                                            5e-6, 2e-5));
  nl.add<dev::ISource>("Iw", b, ckt::kGround,
                       dev::Waveform::pwl({0.0, 1e-6, 3e-6}, {0.0, 2.0, -1.0}));
  nl.add<dev::VSource>("Vdc", nl.node("c"), ckt::kGround,
                       dev::Waveform::dc(1.5).with_ac(-0.5));
  nl.add<dev::Resistor>("R1", a, b, 1e3);
  nl.add<dev::Resistor>("R2", b, ckt::kGround, 1e3);
  nl.add<dev::Resistor>("R3", nl.node("c"), ckt::kGround, 1e3);

  const std::string text = spice::write_netlist(nl, "waveforms");
  EXPECT_NE(text.find("v_Vs a 0 ac 0.5 sin(0.1 0.3 1000)\n"),
            std::string::npos) << text;
  EXPECT_NE(text.find("v_Vdc c 0 dc 1.5 ac -0.5\n"), std::string::npos)
      << text;
  const auto r = parse_netlist(text);

  const auto wave = [](const ckt::Netlist& n, const char* name) {
    if (auto* v = n.find_as<dev::VSource>(name)) return v->waveform();
    return n.find_as<dev::ISource>(name)->waveform();
  };
  for (const auto& [orig, card] :
       {std::pair{"Vs", "v_vs"}, std::pair{"Vd", "v_vd"},
        std::pair{"Ip", "i_ip"}, std::pair{"Iw", "i_iw"},
        std::pair{"Vdc", "v_vdc"}}) {
    ASSERT_TRUE(r.netlist->find(card)) << card;
    const dev::Waveform w0 = wave(nl, orig), w1 = wave(*r.netlist, card);
    EXPECT_EQ(w1.kind(), w0.kind()) << card;
    EXPECT_EQ(w1.ac_mag(), w0.ac_mag()) << card;
    EXPECT_EQ(w1.sine_ampl(), w0.sine_ampl()) << card;
    EXPECT_EQ(w1.sine_freq(), w0.sine_freq()) << card;
    EXPECT_EQ(w1.sine_delay(), w0.sine_delay()) << card;
    EXPECT_EQ(w1.sine_damping(), w0.sine_damping()) << card;
    EXPECT_EQ(w1.pulse_args(), w0.pulse_args()) << card;
    EXPECT_EQ(w1.pwl_table().xs(), w0.pwl_table().xs()) << card;
    EXPECT_EQ(w1.pwl_table().ys(), w0.pwl_table().ys()) << card;
    for (double t : {0.0, 5e-7, 1.5e-6, 4e-6, 1.2e-4, 3e-4})
      EXPECT_EQ(w1.value(t), w0.value(t)) << card << " at t = " << t;
  }
}

// A source's AC phase is written in degrees after its magnitude, so a
// re-parsed deck drives .ac/.noise with the same phasor; a phase-0
// source prints the bytes it always has.
TEST(SpiceWriter, AcPhaseRoundTrips) {
  const auto r0 = parse_netlist(
      "t\nV1 IN 0 DC 1 AC 1 45 ; inline comment\nv2 a 0 dc 2.5 ac 1\n"
      "r1 in a 1k\nr2 a 0 1k\n");
  const std::string text = spice::write_netlist(*r0.netlist, "t");
  EXPECT_NE(text.find("v_v1 in 0 dc 1 ac 1 45\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("v_v2 a 0 dc 2.5 ac 1\n"), std::string::npos) << text;
  const auto r1 = parse_netlist(text);
  const double phase =
      r1.netlist->find_as<dev::VSource>("v_v1")->waveform().ac_phase();
  const double quarter = M_PI / 4.0;
  EXPECT_LE(std::abs(phase - quarter),
            std::nextafter(quarter, 1.0) - quarter);
  EXPECT_EQ(r1.netlist->find_as<dev::VSource>("v_v2")->waveform().ac_phase(),
            0.0);
}

}  // namespace

// --- .param and {expression} support (appended suite) ---------------------
namespace {

using msim::spice::parse_netlist;

TEST(SpiceParams, ParamAndExpressions) {
  const char* src = R"(params
.param rbase 1k gain 4
v1 in 0 dc {gain * 0.5}
r1 in mid {rbase * 2}
r2 mid 0 {rbase + rbase}
.end
)";
  auto r = parse_netlist(src);
  const auto op = msim::an::solve_op(*r.netlist);
  ASSERT_TRUE(op.converged);
  // 2 V through equal 2k/2k divider -> 1 V.
  EXPECT_NEAR(op.v(*r.netlist, "mid"), 1.0, 1e-6);
}

TEST(SpiceParams, NestedParamReferences) {
  const char* src = R"(nested params
.param a 2 b {a * 3} c {(a + b) / 4}
v1 x 0 dc {c}
r1 x 0 1k
.end
)";
  auto r = parse_netlist(src);
  const auto op = msim::an::solve_op(*r.netlist);
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(op.v(*r.netlist, "x"), 2.0, 1e-9);  // (2+6)/4
}

TEST(SpiceParams, ExpressionsInDeviceKeywords) {
  const char* src = R"(kw expr
.param wbase 10u
.model mn nmos vto=0.75 kp=80u
vdd vdd 0 3
vg g 0 1.2
m1 vdd g 0 0 mn w={wbase * 4} l={wbase / 5}
.end
)";
  auto r = parse_netlist(src);
  auto* m = r.netlist->find_as<msim::dev::Mosfet>("m1");
  ASSERT_NE(m, nullptr);
  EXPECT_NEAR(m->width(), 40e-6, 1e-12);
  EXPECT_NEAR(m->length(), 2e-6, 1e-12);
}

TEST(SpiceParams, ErrorsOnUnknownParam) {
  EXPECT_THROW(parse_netlist("t\nr1 a 0 {nope}\n"), std::runtime_error);
  EXPECT_THROW(parse_netlist("t\nr1 a 0 {1 +}\n"), std::runtime_error);
}

TEST(SpiceParams, SiSuffixInsideExpression) {
  const char* src = R"(suffix
.param r0 2.2k
v1 a 0 dc 1
r1 a 0 {r0 / 2.2}
.end
)";
  auto r = parse_netlist(src);
  auto* res = r.netlist->find_as<msim::dev::Resistor>("r1");
  ASSERT_NE(res, nullptr);
  EXPECT_NEAR(res->resistance(), 1000.0, 1e-9);
}

}  // namespace

// --- parser characterisation: parse_value, deck corpus, error text --------
// Every expectation below was recorded from the original istringstream /
// std::stod parser; the single-pass parser must reproduce them exactly.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "core/mic_amp.h"
#include "devices/bjt.h"
#include "devices/controlled.h"
#include "devices/diode.h"
#include "devices/mos_switch.h"
#include "golden_util.h"
#include "process/process.h"

namespace {

using namespace msim;
using spice::parse_netlist;
using spice::parse_value;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(SpiceValue, CharacterisesAcceptedForms) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const struct {
    const char* tok;
    double want;
  } cases[] = {
      // Every SI suffix, both cases; the multiply matches the parser's.
      {"1f", 1.0 * 1e-15}, {"1F", 1.0 * 1e-15},
      {"2.5p", 2.5 * 1e-12}, {"2.5P", 2.5 * 1e-12},
      {"3n", 3.0 * 1e-9}, {"3N", 3.0 * 1e-9},
      {"4.7u", 4.7 * 1e-6}, {"4.7U", 4.7 * 1e-6},
      {"10m", 10.0 * 1e-3}, {"10M", 10.0 * 1e-3},
      {"2.2k", 2.2 * 1e3}, {"2.2K", 2.2 * 1e3},
      {"5meg", 5.0 * 1e6}, {"5MEG", 5.0 * 1e6}, {"5Meg", 5.0 * 1e6},
      {"3mil", 3.0 * 25.4e-6}, {"3MIL", 3.0 * 25.4e-6},
      {"7g", 7.0 * 1e9}, {"7G", 7.0 * 1e9},
      {"8t", 8.0 * 1e12}, {"8T", 8.0 * 1e12},
      // Number shapes.
      {".5", 0.5}, {"1e-3", 1e-3}, {"1E-3", 1e-3}, {"-0.7", -0.7},
      {"-0", -0.0}, {"0", 0.0}, {"0.000", 0.0}, {"+5", 5.0}, {"1e", 1.0},
      {"1e+", 1.0}, {"2.5e3k", 2.5e3 * 1e3}, {"1.", 1.0}, {"0x10", 16.0},
      {"-0x1p4", -16.0}, {"0.1", 0.1}, {"1e308", 1e308},
      {"123456789012345678901234567890", 123456789012345678901234567890.0},
      {"3.3000000000000003", 3.3000000000000003},
      // Unit tails and prefix-looking tails.
      {"5v", 5.0}, {"10ohm", 10.0}, {"1.5mv", 1.5 * 1e-3},
      {"2mega", 2.0 * 1e6}, {"1me", 1.0 * 1e-3}, {"1x", 1.0},
      {"1e-3u", 1e-3 * 1e-6}, {"1hz", 1.0},
      // Non-finite spellings strtod accepts.
      {"inf", kInf}, {"-inf", -kInf}, {"INF", kInf}, {"infinity", kInf},
      {"infk", kInf},
  };
  for (const auto& c : cases)
    EXPECT_EQ(bits(parse_value(c.tok)), bits(c.want))
        << c.tok << " -> " << parse_value(c.tok);

  const double nan = parse_value("nan");
  EXPECT_TRUE(std::isnan(nan));
  EXPECT_FALSE(std::signbit(nan));
  EXPECT_EQ(bits(nan), bits(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_TRUE(std::signbit(parse_value("-nan")));
  EXPECT_TRUE(std::isnan(parse_value("NaN(1)")));
}

TEST(SpiceValue, CharacterisesRejectedForms) {
  // Out-of-range magnitudes (including subnormal results) are rejected
  // like malformed text.
  for (const char* tok : {"abc", "", "-", "+", ".", "e5", "k", "meg", "1e400",
                          "-1e400", "1e-400", "1e-310", " "}) {
    try {
      parse_value(tok);
      ADD_FAILURE() << "accepted '" << tok << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), std::string("bad number: ") + tok);
    }
  }
}

// Text description of one parse: everything the parser decides.
std::string describe_parse(const std::string& deck) {
  std::string s;
  char buf[256];
  try {
    const auto r = parse_netlist(deck);
    const ckt::Netlist& nl = *r.netlist;
    s += "title: " + r.title + "\n";
    std::snprintf(buf, sizeof buf, "temp_c: %a\nfingerprint: %016llx\n",
                  r.temp_c,
                  static_cast<unsigned long long>(nl.topology_fingerprint()));
    s += buf;
    for (const auto& d : r.directives) {
      s += "directive: " + d.kind;
      for (const auto& a : d.args) s += " [" + a + "]";
      s += "\n";
    }
    s += "nodes:";
    for (int n = 0; n < nl.node_count(); ++n) s += " " + nl.node_name(n);
    s += "\n";
    for (const auto& dp : nl.devices()) {
      const ckt::Device* d = dp.get();
      s += "device: " + d->name() + " line " +
           std::to_string(d->source_line()) + " nodes";
      for (auto n : d->nodes()) s += " " + std::to_string(n);
      std::string v;
      auto add = [&](double x) {
        std::snprintf(buf, sizeof buf, " %a", x);
        v += buf;
      };
      if (auto* x = dynamic_cast<const dev::Resistor*>(d)) {
        add(x->nominal_resistance());
        add(x->resistance());
      } else if (auto* x = dynamic_cast<const dev::Capacitor*>(d)) {
        add(x->capacitance());
      } else if (auto* x = dynamic_cast<const dev::Inductor*>(d)) {
        add(x->inductance());
      } else if (auto* x = dynamic_cast<const dev::VSource*>(d)) {
        const auto& w = x->waveform();
        for (double t : {0.0, 1e-9, 3e-9, 1e-6, 1.5e-6, 1e-3}) add(w.value(t));
        add(w.ac_mag());
        add(w.ac_phase());
      } else if (auto* x = dynamic_cast<const dev::ISource*>(d)) {
        const auto& w = x->waveform();
        for (double t : {0.0, 1e-9, 3e-9, 1e-6, 1.5e-6, 1e-3}) add(w.value(t));
        add(w.ac_mag());
        add(w.ac_phase());
      } else if (auto* x = dynamic_cast<const dev::Vcvs*>(d)) {
        add(x->gain());
      } else if (auto* x = dynamic_cast<const dev::Vccs*>(d)) {
        add(x->gm());
      } else if (auto* x = dynamic_cast<const dev::Mosfet*>(d)) {
        const auto& p = x->params();
        v += p.polarity == dev::MosPolarity::kNmos ? " nmos" : " pmos";
        for (double y : {x->width(), x->length(), p.vth0, p.kp, p.lambda,
                         p.gamma, p.phi, p.cox, p.kf, p.af, p.n_sub, p.ld,
                         p.vth_tc, p.mu_exp})
          add(y);
      } else if (auto* x = dynamic_cast<const dev::Bjt*>(d)) {
        const auto& p = x->params();
        v += p.polarity == dev::BjtPolarity::kNpn ? " npn" : " pnp";
        for (double y : {p.area, p.is, p.beta_f, p.beta_r, p.vaf, p.xti,
                         p.xtb, p.eg, p.kf, p.af})
          add(y);
      } else if (auto* x = dynamic_cast<const dev::Diode*>(d)) {
        const auto& p = x->params();
        for (double y : {p.area, p.is, p.n, p.xti, p.eg, p.kf, p.af}) add(y);
      } else if (auto* x = dynamic_cast<const dev::MosSwitch*>(d)) {
        v += x->is_on() ? " on" : " off";
        add(x->r_on());
        add(x->resistance());
      }
      s += " values" + v + "\n";
    }
    s += "--- write_netlist\n" + spice::write_netlist(nl, r.title);
  } catch (const std::exception& e) {
    s += std::string("error: ") + e.what() + "\n";
  }
  return s;
}

std::string read_text(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(SpiceCorpus, RepositoryDecksMatchGoldens) {
  const std::filesystem::path root(MSIM_TEST_DIR);
  int decks = 0;
  for (const auto& [dir, tag] :
       {std::pair{root / ".." / "examples" / "netlists", "examples"},
        std::pair{root / "faults", "faults"}}) {
    std::vector<std::filesystem::path> files;
    for (const auto& e : std::filesystem::directory_iterator(dir))
      if (e.path().extension() == ".sp") files.push_back(e.path());
    std::sort(files.begin(), files.end());
    for (const auto& f : files) {
      golden::expect(std::string("spicefmt/") + tag + "_" +
                                 f.stem().string() + ".txt",
                             describe_parse(read_text(f)));
      ++decks;
    }
  }
  EXPECT_GE(decks, 13);
}

TEST(SpiceCorpus, MicAmpDecksMatchGoldens) {
  const auto pm = proc::ProcessModel::cmos12();
  for (int k = 0; k < core::kMicGainCodes; ++k) {
    ckt::Netlist nl;
    const auto vdd = nl.node("vdd"), vss = nl.node("vss");
    const auto inp = nl.node("inp"), inn = nl.node("inn");
    nl.add<dev::VSource>("Vdd", vdd, ckt::kGround, 1.3);
    nl.add<dev::VSource>("Vss", vss, ckt::kGround, -1.3);
    nl.add<dev::VSource>("Vinp", inp, ckt::kGround,
                         dev::Waveform::dc(0.0).with_ac(0.5));
    nl.add<dev::VSource>("Vinn", inn, ckt::kGround,
                         dev::Waveform::dc(0.0).with_ac(-0.5));
    core::build_mic_amp(nl, pm, {}, vdd, vss, ckt::kGround, inp, inn)
        .set_gain_code(k);
    std::string deck = spice::write_netlist(nl, "mic-amp code " +
                                                    std::to_string(k));
    deck.insert(deck.rfind(".end"), ".op\n.ac dec 10 10 1e6\n");
    golden::expect("spicefmt/mic_amp_k" + std::to_string(k) + ".txt",
                           describe_parse(deck));
  }
}

// Hand-written decks for the corners of the card syntax.
const struct {
  const char* name;
  const char* deck;
} kQuirkDecks[] = {
    {"text",
     "Mixed Case Title, kept verbatim\n"
     "+ continued title\n"
     "* comment card\n"
     "V1 IN 0 DC 1 AC 1 45 ; inline comment\n"
     "\tR1\tIN  OUT\t1K $ dollar comment\n"
     "r2 out 0 2k$notacomment\n"
     "c1 out 0 1p;x\n"
     "v2 a 0\n"
     "+ dc 2.5\n"
     "+ ac\n"
     "i1 a gnd 1m\r\n"
     "r3 a,out,(4.7k)\r\n"
     "v3 b 0 3\n"
     "v4 b2 0 dc -1 ac 2\n"
     "r4 b b2 1meg\n"
     "   \n"
     ".OP\n"
     ".ac dec 10 1 1meg\n"
     ".tran 1n 100n 0 1n\n"
     ".temp 85\n"
     ".end\n"
     "r9 after end 1\n"},
    {"models",
     "models\n"
     ".param base 2\n"
     ".model nm nmos vto=-0.7 kp={base*40u} lambda=0.02 gamma=0.4 phi=0.6"
     " tox=20n cox=1m kf=1e-25 af=1.2 n=1.3 ld=0.05u tcv=-2m bex=1.4"
     " vto=0.72\n"
     ".model pm pmos (vto=-0.8 kp=25u cox=2m)\n"
     ".model qn npn is=1e-16 bf=150 br=2 vaf=60 xti=3.5 xtb=1.2 eg=1.12"
     " kf=1e-26 af=1.1\n"
     ".model qp pnp is=2e-17 bf=12\n"
     ".model dd d is=2e-15 n=1.05 xti=3 eg=1.11 kf=0 af=1\n"
     ".model sx sw ron=50 roff=1meg\n"
     ".model odd nmos vto 0.5 kp\n"
     ".model cont nmos vto=0.4\n"
     "+ kp=90u lambda={base / 100}\n"
     "vdd vdd 0 dc 3\n"
     "m1 d g 0 0 nm w=20u l=2u\n"
     "m2 d g vdd vdd pm l=3u w=30u\n"
     "m3 d g 0 0 dd\n"
     "m4 d g 0 0 odd w={base * 5u}\n"
     "m5 d g 0 0 cont\n"
     "m6 d g 0 0 qn\n"
     "q1 c b 0 qn area=2\n"
     "q2 0 b c qp\n"
     "q3 0 b c nm\n"
     "d1 a 0 dd area=3\n"
     "d2 a c qn\n"
     "s1 a b sx\n"
     "s2 a c sx on\n"
     "s3 on off sx\n"
     "s4 a b qn\n"
     "r1 d 0 1k tc1=1m tc2=2u\n"
     "r2 g 0 {base * 1k}\n"
     "r3 c 0 {-base*(1 + 2) / -3}\n"
     "r4 b 0 { base - 1e-3 }\n"
     ".end\n"},
    {"subckts",
     "subckts\n"
     "x1 in mid cell\n"
     "x2 mid 0 cell\n"
     ".subckt cell a b\n"
     "r1 a m 1k\n"
     "vs m n dc 0\n"
     "f1 n b vs 2\n"
     "h1 b gnd vs 3\n"
     "f2 b 0 vin 0.5\n"
     "e1 x 0 a b 2\n"
     "g1 0 x a b 1m\n"
     "l1 x b 1u\n"
     "xin a b leaf\n"
     ".model inner_m nmos vto=0.6\n"
     ".op\n"
     ".ends\n"
     ".subckt leaf p q\n"
     "r9 p q 5k\n"
     "c9 p q 1p\n"
     ".ends cell\n"
     ".subckt dup p p\n"
     "r1 p 0 1k\n"
     ".ends\n"
     ".subckt gport 0 z\n"
     "r1 0 z 1k\n"
     ".ends\n"
     "x3 n1 n2 dup\n"
     "x4 n3 n4 gport\n"
     "vin in 0 pulse(0 1 1n 1n 1n 5n 10n)\n"
     "i1 in 0 sin(0 1m 1k 0 0)\n"
     "i2 in 0 pwl(0 0 1u 1 2u 0)\n"
     "fg 0 in vin 1\n"
     "hg 0 in vlate 1k\n"
     "vlate in2 0 1\n"
     "m1 in in 0 0 inner_m\n"
     ".tran 1n 100n\n"
     ".dc vin 0 1 0.1\n"
     ".noise v(out) vin dec 10 1 1k\n"
     ".end\n"},
    {"no_title", "\n\nr1 a 0 1k\nv1 a 0 1\n"},
    {"star_title", "* title that looks like a comment\nr1 a 0 1k\n"},
    {"empty", ""},
    {"title_only", "just a title"},
    {"separators_only", "t\n(((\n,,,\n.op\n"},
    {"title_continued_after_blank",
     "title\n\n* comment\n+ more title\nr1 a 0 1k\n"},
    {"brace_across_continuation",
     "t\n.param a 1\nr1 x 0 {a +\n+ 2}\nr2 x 0 1k} y z\n"},
    {"nested_definitions",
     "t\n.subckt o a\n.subckt i b\nr1 b 0 1\n.ends\nxi a i\n.ends\n"
     "xo n o\n"},
    {"late_definitions",
     "t\n.param a 1\nr1 x 0 {a}\nx1 x s\nm1 x x 0 0 late\n.param a 2\n"
     ".subckt s p\nr1 p 0 {a * 3}\n.ends\n.model late nmos vto=1\n"
     ".model late pmos vto=-2 tox=10n\n.END\n"},
};

TEST(SpiceCorpus, QuirkDecksMatchGoldens) {
  for (const auto& q : kQuirkDecks)
    golden::expect(std::string("spicefmt/quirk_") + q.name + ".txt",
                           describe_parse(q.deck));
}

TEST(SpiceCorpus, ErrorMessagesAreExact) {
  const struct {
    const char* deck;
    const char* what;
  } cases[] = {
      // Card arguments are evaluated last to first, so a short card
      // reports its missing value before its missing nodes.
      {"t\nr1 a 0\n", "spice parse error, line 2: missing value on r1"},
      {"t\nr1 a\n", "spice parse error, line 2: missing value on r1"},
      {"t\ne1 a 0 b\n", "spice parse error, line 2: missing value on e1"},
      {"t\ne1 a 0 b 0 2\ng1 a\n",
       "spice parse error, line 3: missing value on g1"},
      {"t\nc1 a 0 1p\nc2 a 0 1p 2p\nl1 a\n",
       "spice parse error, line 4: missing value on l1"},
      {"t\nv1 a\n", "spice parse error, line 2: missing node on v1"},
      {"t\nr1 a 0 1k\nr2 a 0 bogus\n",
       "spice parse error, line 3: bad number: bogus"},
      {"t\nr1 a 0 1e400\n", "spice parse error, line 2: bad number: 1e400"},
      {"t\nR1 A 0 BOGUS\n", "spice parse error, line 2: bad number: bogus"},
      {"t\n.temp abc\n", "spice parse error, line 2: bad number: abc"},
      {"t\nz1 a 0 1k\n", "spice parse error, line 2: unknown element 'z1'"},
      {"t\nm1 d g s b nomodel w=1u l=1u\n",
       "spice parse error, line 2: unknown model nomodel"},
      {"t\n.subckt foo a\nr1 a 0 1\n",
       "spice parse error, line 2: missing .ends"},
      {"\n+ dc 5\n",
       "spice parse error, line 2: continuation with no prior card"},
      {"t\nx1 a b nosub\n", "spice parse error, line 2: unknown subckt nosub"},
      {"t\n.subckt s a b\nr1 a b 1\n.ends\nx1 a s\n",
       "spice parse error, line 5: port count mismatch on x1"},
      {"t\nx1\n", "spice parse error, line 2: x card needs subckt name"},
      {"t\n.model m\n",
       "spice parse error, line 2: .model needs name and type"},
      {"t\n.subckt\n", "spice parse error, line 2: .subckt needs a name"},
      {"t\nr1 a 0 {1 +}\n", "spice parse error, line 2: bad expression {1 +}"},
      {"t\nr1 a 0 {nope}\n",
       "spice parse error, line 2: unknown parameter 'nope'"},
      {"t\nr1 a 0 {(1}\n", "spice parse error, line 2: missing ')' in {(1}"},
      {"t\nr1 a 0 {1}k\n", "spice parse error, line 2: unterminated { in {1}k"},
      {"t\nr1 a 0 {1 2}\n",
       "spice parse error, line 2: trailing junk in {1 2}"},
      {"t\nr1 a 0 {1e400}\n", "bad number: 1e400"},
      {"t\n.param p {q}\n", "spice parse error, line 2: unknown parameter 'q'"},
      {"t\nf1 0 a vx 2\n",
       "spice parse error, line 2: controlling source vx not found"},
      {"t\nvx a 0 1\nf1 0 a vx\n",
       "spice parse error, line 3: missing gain on f1"},
      {"t\nf1 0 a\n", "spice parse error, line 2: f1 needs n+ n- vsense gain"},
      {"t\nvx a 0 1\nh1 0 a vx x\n",
       "spice parse error, line 3: bad number: x"},
      {"t\nd1 a 0\n", "spice parse error, line 2: diode needs model"},
      {"t\nq1 a b c\n", "spice parse error, line 2: bjt needs c b e model"},
      {"t\nm1 a b c d\n",
       "spice parse error, line 2: mosfet needs d g s b model"},
      {"t\ns1 a b\n", "spice parse error, line 2: switch needs model"},
      {"t\nv1 a 0 sin(0 1)\n",
       "spice parse error, line 2: sin needs offset ampl freq"},
      {"t\nv1 a 0 pulse(0 1 2)\n",
       "spice parse error, line 2: pulse needs 7 values"},
      {"t\nv1 a 0 pwl(0)\n",
       "spice parse error, line 2: pwl needs time/value pairs"},
      {"t\nv1 a 0 dc\n", "spice parse error, line 2: dc needs a value"},
      {"t\n.subckt s a\nr1 a 0 x\n.ends\nx1 n s\n",
       "spice parse error, line 3: bad number: x"},
      {"t\nr1 a 0\n+ 1x ; c\nr2 a 0 {\n",
       "spice parse error, line 4: unterminated { in {"},
  };
  for (const auto& c : cases) {
    try {
      parse_netlist(c.deck);
      ADD_FAILURE() << "no error for deck:\n" << c.deck;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), c.what) << c.deck;
    }
  }
}

}  // namespace
