#include "spicefmt/writer.h"

#include <cmath>
#include <sstream>
#include <vector>

#include "devices/bjt.h"
#include "devices/controlled.h"
#include "devices/diode.h"
#include "devices/mos_switch.h"
#include "devices/mosfet.h"
#include "devices/passive.h"
#include "devices/sources.h"

namespace msim::spice {
namespace {

// SPICE identifiers must start with the element letter; generated names
// like "mic.M1" are sanitized into "M_mic.M1"-style cards.
std::string card_name(char letter, const std::string& name) {
  std::string s(1, letter);
  s += "_";
  for (char c : name) s += (c == ' ' ? '_' : c);
  return s;
}

std::string node_ref(const ckt::Netlist& nl, ckt::NodeId n) {
  return n == ckt::kGround ? "0" : nl.node_name(n);
}

// A source's value in the parser's syntax: `dc <v>`, or the transient
// shape as sin(...)/pulse(...)/pwl(...).  `ac <mag> [<phase deg>]` goes
// before a shape, whose arguments the parser reads to the end of the
// card.
void write_waveform(std::ostringstream& os, const dev::Waveform& w) {
  using Kind = dev::Waveform::Kind;
  if (w.kind() == Kind::kDc) os << " dc " << w.dc_value();
  if (w.ac_mag() != 0.0) {
    os << " ac " << w.ac_mag();
    if (w.ac_phase() != 0.0) os << " " << w.ac_phase() * 180.0 / M_PI;
  }
  const auto args = [&](const char* shape, const auto& values) {
    os << " " << shape << "(";
    const char* sep = "";
    for (double v : values) {
      os << sep << v;
      sep = " ";
    }
    os << ")";
  };
  switch (w.kind()) {
    case Kind::kDc:
      break;
    case Kind::kSin: {
      // Trailing zero delay and damping are the parser's defaults.
      std::vector<double> a = {w.dc_value(), w.sine_ampl(), w.sine_freq(),
                               w.sine_delay(), w.sine_damping()};
      while (a.size() > 3 && a.back() == 0.0) a.pop_back();
      args("sin", a);
      break;
    }
    case Kind::kPulse:
      args("pulse", w.pulse_args());
      break;
    case Kind::kPwl: {
      const auto& t = w.pwl_table();
      std::vector<double> a;
      for (std::size_t i = 0; i < t.size(); ++i) {
        a.push_back(t.xs()[i]);
        a.push_back(t.ys()[i]);
      }
      args("pwl", a);
      break;
    }
  }
}

}  // namespace

std::string write_netlist(const ckt::Netlist& nl,
                          const std::string& title) {
  std::ostringstream os;
  os << title << "\n";
  std::ostringstream models;

  for (const auto& dptr : nl.devices()) {
    const ckt::Device* d = dptr.get();
    const auto& ns = d->nodes();
    auto n = [&](std::size_t i) { return node_ref(nl, ns[i]); };

    if (auto* r = dynamic_cast<const dev::Resistor*>(d)) {
      os << card_name('r', d->name()) << " " << n(0) << " " << n(1) << " "
         << r->nominal_resistance() << "\n";
    } else if (auto* c = dynamic_cast<const dev::Capacitor*>(d)) {
      os << card_name('c', d->name()) << " " << n(0) << " " << n(1) << " "
         << c->capacitance() << "\n";
    } else if (auto* l = dynamic_cast<const dev::Inductor*>(d)) {
      os << card_name('l', d->name()) << " " << n(0) << " " << n(1) << " "
         << l->inductance() << "\n";
    } else if (auto* v = dynamic_cast<const dev::VSource*>(d)) {
      os << card_name('v', d->name()) << " " << n(0) << " " << n(1);
      write_waveform(os, v->waveform());
      os << "\n";
    } else if (auto* i = dynamic_cast<const dev::ISource*>(d)) {
      os << card_name('i', d->name()) << " " << n(0) << " " << n(1);
      write_waveform(os, i->waveform());
      os << "\n";
    } else if (auto* e = dynamic_cast<const dev::Vcvs*>(d)) {
      os << card_name('e', d->name()) << " " << n(0) << " " << n(1) << " "
         << n(2) << " " << n(3) << " " << e->gain() << "\n";
    } else if (auto* g = dynamic_cast<const dev::Vccs*>(d)) {
      os << card_name('g', d->name()) << " " << n(0) << " " << n(1) << " "
         << n(2) << " " << n(3) << " " << g->gm() << "\n";
    } else if (auto* m = dynamic_cast<const dev::Mosfet*>(d)) {
      const std::string mod = card_name('m', d->name()) + "_m";
      const auto& p = m->params();
      os << card_name('m', d->name()) << " " << n(0) << " " << n(1) << " "
         << n(2) << " " << n(3) << " " << mod << " w=" << m->width()
         << " l=" << m->length() << "\n";
      models << ".model " << mod << " "
             << (p.polarity == dev::MosPolarity::kNmos ? "nmos" : "pmos")
             << " vto=" << p.vth0 << " kp=" << p.kp
             << " lambda=" << p.lambda << " gamma=" << p.gamma
             << " phi=" << p.phi << " cox=" << p.cox << " kf=" << p.kf
             << " af=" << p.af << " n=" << p.n_sub << " ld=" << p.ld
             << "\n";
    } else if (auto* q = dynamic_cast<const dev::Bjt*>(d)) {
      const std::string mod = card_name('q', d->name()) + "_m";
      const auto& p = q->params();
      os << card_name('q', d->name()) << " " << n(0) << " " << n(1) << " "
         << n(2) << " " << mod << " area=" << p.area << "\n";
      models << ".model " << mod << " "
             << (p.polarity == dev::BjtPolarity::kNpn ? "npn" : "pnp")
             << " is=" << p.is << " bf=" << p.beta_f << " br=" << p.beta_r
             << " vaf=" << p.vaf << " xti=" << p.xti << " xtb=" << p.xtb
             << " eg=" << p.eg << " kf=" << p.kf << " af=" << p.af
             << "\n";
    } else if (auto* di = dynamic_cast<const dev::Diode*>(d)) {
      const std::string mod = card_name('d', d->name()) + "_m";
      (void)di;
      os << card_name('d', d->name()) << " " << n(0) << " " << n(1) << " "
         << mod << "\n";
      models << ".model " << mod << " d\n";
    } else if (auto* sw = dynamic_cast<const dev::MosSwitch*>(d)) {
      const std::string mod = card_name('s', d->name()) + "_m";
      os << card_name('s', d->name()) << " " << n(0) << " " << n(1) << " "
         << mod << (sw->is_on() ? " on" : " off") << "\n";
      models << ".model " << mod << " sw ron=" << sw->r_on() << "\n";
    } else if (dynamic_cast<const dev::Cccs*>(d) ||
               dynamic_cast<const dev::Ccvs*>(d)) {
      os << "* current-controlled source '" << d->name()
         << "' omitted (sense reference not serializable)\n";
    } else {
      os << "* unknown device '" << d->name() << "'\n";
    }
  }
  os << models.str();
  os << ".end\n";
  return os.str();
}

}  // namespace msim::spice
