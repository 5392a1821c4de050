#include "devices/mos_switch.h"

#include "circuit/range.h"
#include "numeric/units.h"

namespace msim::dev {

MosSwitch::MosSwitch(std::string name, ckt::NodeId p, ckt::NodeId n,
                     double r_on, double r_off, bool on)
    : Device(std::move(name), {p, n}), r_on_(r_on), r_off_(r_off), on_(on) {}

void MosSwitch::set_clock(Waveform clock, double threshold) {
  clock_ = std::move(clock);
  clock_threshold_ = threshold;
}

void MosSwitch::stamp(ckt::StampContext& ctx) const {
  const bool on =
      ctx.mode() == ckt::AnalysisMode::kTransient ? on_at(ctx.time)
                                                  : on_at(0.0);
  ctx.add_conductance(nodes_[0], nodes_[1], 1.0 / (on ? r_on_ : r_off_));
}

void MosSwitch::stamp_ac(ckt::AcStampContext& ctx) const {
  const bool on = on_at(0.0);
  ctx.add_admittance(nodes_[0], nodes_[1],
                     {1.0 / (on ? r_on_ : r_off_), 0.0});
}

void MosSwitch::append_noise_sources(std::vector<ckt::NoiseSource>& out,
                                     double temp_k) const {
  // Off switches are treated as ideal open circuits (paper, Sec. 3.1).
  if (!on_at(0.0)) return;
  const double psd = 4.0 * num::kBoltzmann * temp_k / r_on_;
  out.push_back({name_ + ".thermal", nodes_[0], nodes_[1],
                 [psd](double) { return psd; }});
}


void MosSwitch::stamp_batch(const ckt::Device* const* devs, std::size_t n,
                            ckt::StampContext& ctx) {
  // Every element of the run is a MosSwitch (RealSystem segments by
  // concrete class), so the qualified call devirtualizes the loop.
  for (std::size_t i = 0; i < n; ++i)
    static_cast<const MosSwitch*>(devs[i])->MosSwitch::stamp(ctx);
}


void MosSwitch::range_eval(ckt::RangeContext& ctx) const {
  // Resistance lies in [r_on, r_off] no matter what the digital code or
  // clock does, so this one declaration covers every PGA gain setting.
  const ckt::NodeId p = nodes_[0], n = nodes_[1];
  ctx.declare_branch(this, p, n);
  if (ctx.verdict_pass() && r_on_ > 0.0 && r_off_ > 0.0) {
    const num::Interval dv = ctx.v(p) - ctx.v(n);
    if (dv.bounded())
      ctx.note_current(this, num::mul(dv, num::Interval::bounds(
                                              1.0 / r_off_, 1.0 / r_on_)));
  }
}

}  // namespace msim::dev
