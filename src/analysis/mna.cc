#include "analysis/mna.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "analysis/structural.h"
#include "core/faultpoint.h"
#include "devices/bjt.h"
#include "devices/controlled.h"
#include "devices/diode.h"
#include "devices/mos_switch.h"
#include "devices/mosfet.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "devices/tanh_vccs.h"

namespace msim::an {
namespace {

std::atomic<long> g_factor_calls{0};

using Clock = std::chrono::steady_clock;

long ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

// Sampling policy for the stamp/factor/solve breakdown.  The first
// kExactCalls of each phase are timed exactly -- that covers operating
// points and the symbolic-analysis factor, whose cost would be
// overstated by scaling, and guarantees non-zero telemetry for any run
// that assembles at all.  Past the warm-up, one call in kSamplePeriod
// is timed and its duration scaled by the period; the period is prime
// so samples do not alias with iterations-per-step patterns in the
// transient loop.
constexpr long kExactCalls = 32;
constexpr long kSamplePeriod = 97;

// Same sampling policy for the ensemble system, which ticks its clocks
// once per cohort call instead of once per lane (RealSystem::PhaseClock
// is private to that class; the policy is small enough to restate).
struct SampledClock {
  long calls = 0;
  long weight = 0;  // 0 = untimed call, else ns multiplier
  Clock::time_point t0;
  void begin() {
    const long i = calls++;
    weight = i < kExactCalls
                 ? 1
                 : ((i - kExactCalls) % kSamplePeriod == 0 ? kSamplePeriod : 0);
    if (weight != 0) t0 = Clock::now();
  }
  long end_ns() const { return weight != 0 ? weight * ns_since(t0) : 0; }
};

// Concrete device classes with a batched stamp loop.  kOtherKind runs
// make the plain per-device virtual calls (heterogeneous/behavioral
// fallback).  The hierarchy is flat (every device derives directly from
// ckt::Device), so the dynamic_cast chain below is order-independent.
enum BatchKind : int {
  kOtherKind = 0,
  kResistorKind,
  kCapacitorKind,
  kInductorKind,
  kMosfetKind,
  kDiodeKind,
  kBjtKind,
  kVSourceKind,
  kISourceKind,
  kVcvsKind,
  kVccsKind,
  kCccsKind,
  kCcvsKind,
  kTanhVccsKind,
  kMosSwitchKind,
};

int batch_kind(const ckt::Device* d) {
  if (dynamic_cast<const dev::Resistor*>(d)) return kResistorKind;
  if (dynamic_cast<const dev::Capacitor*>(d)) return kCapacitorKind;
  if (dynamic_cast<const dev::Inductor*>(d)) return kInductorKind;
  if (dynamic_cast<const dev::Mosfet*>(d)) return kMosfetKind;
  if (dynamic_cast<const dev::Diode*>(d)) return kDiodeKind;
  if (dynamic_cast<const dev::Bjt*>(d)) return kBjtKind;
  if (dynamic_cast<const dev::VSource*>(d)) return kVSourceKind;
  if (dynamic_cast<const dev::ISource*>(d)) return kISourceKind;
  if (dynamic_cast<const dev::Vcvs*>(d)) return kVcvsKind;
  if (dynamic_cast<const dev::Vccs*>(d)) return kVccsKind;
  if (dynamic_cast<const dev::Cccs*>(d)) return kCccsKind;
  if (dynamic_cast<const dev::Ccvs*>(d)) return kCcvsKind;
  if (dynamic_cast<const dev::TanhVccs*>(d)) return kTanhVccsKind;
  if (dynamic_cast<const dev::MosSwitch*>(d)) return kMosSwitchKind;
  return kOtherKind;
}

// One tight loop per concrete class: the virtual dispatch is hoisted
// out of the device loop and (with stamp() marked final) the calls
// devirtualize inside each device TU.  Segmentation preserved the
// original stamp order, so this is bit-identical to the plain loop.
void stamp_run(int kind, const ckt::Device* const* devs, std::size_t n,
               ckt::StampContext& ctx) {
  switch (kind) {
    case kResistorKind: dev::Resistor::stamp_batch(devs, n, ctx); break;
    case kCapacitorKind: dev::Capacitor::stamp_batch(devs, n, ctx); break;
    case kInductorKind: dev::Inductor::stamp_batch(devs, n, ctx); break;
    case kMosfetKind: dev::Mosfet::stamp_batch(devs, n, ctx); break;
    case kDiodeKind: dev::Diode::stamp_batch(devs, n, ctx); break;
    case kBjtKind: dev::Bjt::stamp_batch(devs, n, ctx); break;
    case kVSourceKind: dev::VSource::stamp_batch(devs, n, ctx); break;
    case kISourceKind: dev::ISource::stamp_batch(devs, n, ctx); break;
    case kVcvsKind: dev::Vcvs::stamp_batch(devs, n, ctx); break;
    case kVccsKind: dev::Vccs::stamp_batch(devs, n, ctx); break;
    case kCccsKind: dev::Cccs::stamp_batch(devs, n, ctx); break;
    case kCcvsKind: dev::Ccvs::stamp_batch(devs, n, ctx); break;
    case kTanhVccsKind: dev::TanhVccs::stamp_batch(devs, n, ctx); break;
    case kMosSwitchKind: dev::MosSwitch::stamp_batch(devs, n, ctx); break;
    default:
      for (std::size_t i = 0; i < n; ++i) devs[i]->stamp(ctx);
  }
}

void set_params(ckt::StampContext& ctx, const AssembleParams& p) {
  ctx.time = p.time;
  ctx.dt = p.dt;
  ctx.temp_k = p.temp_k;
  ctx.gmin = p.gmin;
  ctx.use_trapezoidal = p.use_trapezoidal;
  ctx.source_scale = p.source_scale;
}

// The slot table of the linear (base) or nonlinear (newton) pass.
template <typename Tables>
auto& slot_pass(Tables& t, bool newton_pass, ckt::AnalysisMode mode) {
  if (mode == ckt::AnalysisMode::kDcOp)
    return newton_pass ? t.newton_dcop : t.base_dcop;
  return newton_pass ? t.newton_tran : t.base_tran;
}

// The large-signal device loop; `Jac` is RealMatrix or RealSparseMatrix.
// With slot tables (sparse only) each device replays its window of the
// recorded linear or nonlinear pass; an unpredicted write searches.
template <typename Jac>
void stamp_real(const ckt::Netlist& nl, const num::RealVector& x,
                const AssembleParams& p, Jac& jac, num::RealVector& rhs,
                const num::StampSlotTables* t = nullptr) {
  ckt::StampContext ctx(p.mode, x, jac, rhs);
  set_params(ctx, p);
  std::size_t next[2] = {0, 0};  // per pass: the next device's window
  for (const auto& d : nl.devices()) {
    if (t) {
      const bool nonlinear = d->is_nonlinear();
      const num::StampSlotPass& pass = slot_pass(*t, nonlinear, p.mode);
      const std::size_t w = next[nonlinear]++;
      if (pass.recorded && w < pass.windows.size())
        ctx.arm_slot_replay(pass.slots.data() + pass.windows[w].first,
                            pass.windows[w].second - pass.windows[w].first);
    }
    d->stamp(ctx);
    if (t) ctx.finish_slot_replay();
  }
}

// The netlist's cached slot tables when they index `jac` (a matrix
// built from the cached skeleton at the current structure), else null.
template <typename T>
const num::StampSlotTables* cached_slots(const ckt::Netlist& nl,
                                         const num::SparseMatrix<T>& jac) {
  const auto& cache = nl.solver_cache();
  const num::StampSlotTables* t = cache.slots.get();
  return t && cache.structure_rev == nl.structure_revision() &&
                 t->nnz == jac.nnz()
             ? t
             : nullptr;
}

// Adds the gshunt guard to every node diagonal of a sparse matrix.
// When the netlist's solver cache carries resolved diagonal slots for
// this structure the loop is n direct writes; otherwise it falls back
// to n binary-searched add() calls (cold cache, foreign matrix).
template <typename T>
void add_gshunt_diag(const ckt::Netlist& nl, num::SparseMatrix<T>& jac,
                     double gshunt) {
  const int nodes = nl.node_count() - 1;
  const num::StampSlotTables* t = cached_slots(nl, jac);
  if (t && static_cast<int>(t->diag.size()) == nodes) {
    auto& vals = jac.values();
    for (int i = 0; i < nodes; ++i)
      vals[static_cast<std::size_t>(t->diag[i])] += gshunt;
    return;
  }
  for (int i = 0; i < nodes; ++i) jac.add(i, i, T{gshunt});
}

}  // namespace

long factor_call_count() {
  return g_factor_calls.load(std::memory_order_relaxed);
}

num::SparsityPattern mna_pattern(const ckt::Netlist& nl) {
  num::SparsityPattern pat(nl.unknown_count());
  for (const auto& d : nl.devices()) d->declare_stamps(pat);
  // The gshunt guard stamps every node diagonal; registering those
  // positions here keeps the dense and sparse paths structurally
  // identical (a capacitor-only node is regularized on both).
  const int nodes = nl.node_count() - 1;
  for (int i = 0; i < nodes; ++i) pat.add(i, i);
  return pat;
}

const num::RealSparseMatrix& mna_skeleton(const ckt::Netlist& nl) {
  auto& cache = nl.solver_cache();
  const int n = nl.unknown_count();
  const std::size_t ndev = nl.devices().size();
  const std::uint64_t rev = nl.structure_revision();
  if (!cache.skeleton || cache.unknowns != n || cache.devices != ndev ||
      cache.structure_rev != rev) {
#ifndef NDEBUG
    // Debug builds verify the stamp contract whenever a fresh pattern
    // is built: an out-of-pattern write would silently corrupt this
    // CSR skeleton for every later system sharing the cache.
    const auto violations = check_stamp_contracts(nl);
    if (!violations.empty())
      throw std::logic_error("stamp contract violation: " +
                             violations.front().message);
#endif
    cache.unknowns = n;
    cache.devices = ndev;
    cache.structure_rev = rev;
    cache.symbolic.reset();
    cache.slots.reset();
    cache.skeleton =
        std::make_shared<const num::RealSparseMatrix>(mna_pattern(nl));
  }
  const num::RealSparseMatrix& skel = *cache.skeleton;
  if (!cache.slots || cache.slots->skeleton != &skel ||
      cache.slots->nnz != skel.nnz()) {
    // Fresh tables with the node-diagonal slots resolved (mna_pattern
    // registers them all); the first systems record the passes.
    auto t = std::make_shared<num::StampSlotTables>();
    t->skeleton = &skel;
    t->nnz = skel.nnz();
    for (int i = 0; i < nl.node_count() - 1; ++i)
      t->diag.push_back(skel.find_index(i, i));
    cache.slots = std::move(t);
  }
  return skel;
}

void assemble_real(const ckt::Netlist& nl, const num::RealVector& x,
                   const AssembleParams& p, num::RealMatrix& jac,
                   num::RealVector& rhs) {
  const std::size_t n = static_cast<std::size_t>(nl.unknown_count());
  // resize() zero-initializes; fill() only when the shape already fits
  // (avoids writing the n^2 buffer twice on the sizing call).
  if (jac.rows() != n)
    jac.resize(n, n);
  else
    jac.fill(0.0);
  rhs.assign(n, 0.0);

  stamp_real(nl, x, p, jac, rhs);

  // Weak shunts from every node voltage to ground keep matrices regular
  // in the presence of floating gates / capacitor-only nodes.
  const int nodes = nl.node_count() - 1;
  for (int i = 0; i < nodes; ++i) jac(i, i) += p.gshunt;
}

void assemble_real(const ckt::Netlist& nl, const num::RealVector& x,
                   const AssembleParams& p, num::RealSparseMatrix& jac,
                   num::RealVector& rhs) {
  jac.clear_values();
  rhs.assign(static_cast<std::size_t>(nl.unknown_count()), 0.0);

  // Replaying the Newton system's recorded passes makes the same writes
  // in the same order, resolved to value indices: no pattern search.
  stamp_real(nl, x, p, jac, rhs, cached_slots(nl, jac));

  add_gshunt_diag(nl, jac, p.gshunt);
}

void assemble_ac(const ckt::Netlist& nl, double omega, double gshunt,
                 num::ComplexMatrix& jac, num::ComplexVector& rhs) {
  const std::size_t n = static_cast<std::size_t>(nl.unknown_count());
  // Size once, then only fill: every AC/noise frequency point lands
  // here, and resize() + fill() wrote the n^2 buffer twice per point.
  if (jac.rows() != n)
    jac.resize(n, n);
  else
    jac.fill({0.0, 0.0});
  rhs.assign(n, {0.0, 0.0});

  ckt::AcStampContext ctx(omega, jac, rhs);
  for (const auto& d : nl.devices()) d->stamp_ac(ctx);

  const int nodes = nl.node_count() - 1;
  for (int i = 0; i < nodes; ++i) jac(i, i) += gshunt;
}

void assemble_ac(const ckt::Netlist& nl, double omega, double gshunt,
                 num::ComplexSparseMatrix& jac, num::ComplexVector& rhs) {
  jac.clear_values();
  rhs.assign(static_cast<std::size_t>(nl.unknown_count()), {0.0, 0.0});

  ckt::AcStampContext ctx(omega, jac, rhs);
  for (const auto& d : nl.devices()) d->stamp_ac(ctx);

  add_gshunt_diag(nl, jac, gshunt);
}

void RealSystem::init(const ckt::Netlist& nl, SolverKind kind) {
  const int n = nl.unknown_count();
  const std::size_t ndev = nl.devices().size();
  const std::uint64_t rev = nl.structure_revision();
  // The structure revision catches topology edits that keep the unknown
  // and device counts unchanged (swap one device for another): a cached
  // slot table replayed over the wrong structure would be caught write
  // by write, but re-keying here avoids ever entering that path.
  if (kind == kind_ && n == n_ && ndev == devices_ && rev == structure_rev_)
    return;
  kind_ = kind;
  n_ = n;
  devices_ = ndev;
  structure_rev_ = rev;
  base_valid_ = false;
  slots_shared_.reset();
  slots_own_.reset();
  if (kind_ == SolverKind::kSparse) {
    // Share the CSR skeleton and (when already known) the symbolic
    // analysis through the netlist's cache; the first factor() of the
    // first system over this netlist pays for both, everyone else
    // copies structure.
    sjac_ = mna_skeleton(nl);
    auto& cache = nl.solver_cache();
    cache_ = &cache;
    slu_.reset();
    exported_serial_ = -1;
    if (cache.symbolic) {
      slu_.adopt_symbolic(cache.symbolic);
      exported_serial_ = slu_.symbolic_serial();
    }
    // Stamp-slot tables: adopt the cache's immutable snapshot, which
    // mna_skeleton keeps matching the skeleton (the MC-sample fast path:
    // the nominal build's resolve is inherited and replayed from the
    // very first assembly).
    slots_shared_ = cache.slots;
  } else {
    cache_ = nullptr;
    djac_.resize(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  }
  linear_.clear();
  nonlinear_.clear();
  for (const auto& d : nl.devices())
    (d->is_nonlinear() ? nonlinear_ : linear_).push_back(d.get());
  // Segment each pass into maximal same-concrete-class runs (stamp
  // order untouched) for the batched loops.
  auto segment = [](const std::vector<const ckt::Device*>& devs) {
    std::vector<BatchRun> runs;
    for (std::size_t i = 0; i < devs.size();) {
      const int kind = batch_kind(devs[i]);
      std::size_t j = i + 1;
      while (j < devs.size() && batch_kind(devs[j]) == kind) ++j;
      runs.push_back({kind, static_cast<int>(i), static_cast<int>(j)});
      i = j;
    }
    return runs;
  };
  linear_runs_ = segment(linear_);
  nonlinear_runs_ = segment(nonlinear_);
}

num::StampSlotPass* RealSystem::own_pass(bool newton_pass,
                                         ckt::AnalysisMode mode) {
  return &slot_pass(*slots_own_, newton_pass, mode);
}

const num::StampSlotPass* RealSystem::replay_pass(
    bool newton_pass, ckt::AnalysisMode mode) const {
  const num::StampSlotTables* t =
      slots_own_ ? slots_own_.get() : slots_shared_.get();
  if (!t) return nullptr;
  const num::StampSlotPass& p = slot_pass(*t, newton_pass, mode);
  return p.recorded ? &p : nullptr;
}

void RealSystem::ensure_own_slots() {
  if (slots_own_) return;
  // Copy-on-write: never mutate the cache's snapshot (MC workers may be
  // replaying it concurrently from their own adopted shared_ptr).
  slots_own_ = slots_shared_
                   ? std::make_shared<num::StampSlotTables>(*slots_shared_)
                   : std::make_shared<num::StampSlotTables>();
  slots_shared_.reset();
}

void RealSystem::publish_slots() {
  if (cache_ && slots_own_)
    cache_->slots = std::make_shared<const num::StampSlotTables>(*slots_own_);
}

void RealSystem::stamp_pass(const std::vector<const ckt::Device*>& devs,
                            const std::vector<BatchRun>& runs,
                            bool newton_pass, ckt::StampContext& ctx,
                            ckt::AnalysisMode mode) {
  if (devs.empty()) return;
  if (kind_ == SolverKind::kSparse && use_slots_) {
    const num::StampSlotPass* rp = replay_pass(newton_pass, mode);
    if (rp && rp->windows.size() == devs.size()) {
      bool ok = true;
      if (use_batches_) {
        // Windows of a run are contiguous in the slot array; arm the
        // whole span once per run.
        for (const BatchRun& run : runs) {
          const int b = rp->windows[static_cast<std::size_t>(run.begin)].first;
          const int e =
              rp->windows[static_cast<std::size_t>(run.end - 1)].second;
          ctx.arm_slot_replay(rp->slots.data() + b, e - b);
          stamp_run(run.kind, devs.data() + run.begin,
                    static_cast<std::size_t>(run.end - run.begin), ctx);
          if (!ctx.finish_slot_replay()) ok = false;
        }
      } else {
        for (std::size_t i = 0; i < devs.size(); ++i) {
          const auto [b, e] = rp->windows[i];
          ctx.arm_slot_replay(rp->slots.data() + b, e - b);
          devs[i]->stamp(ctx);
          if (!ctx.finish_slot_replay()) ok = false;
        }
      }
      if (!ok) {
        // A device emitted writes its table does not predict (a gmin or
        // mode-dependent branch flipped).  The matrix above is still
        // correct -- mismatched writes fell back to the searched path --
        // but schedule a re-record so the next assembly is fast again.
        ensure_own_slots();
        own_pass(newton_pass, mode)->recorded = false;
      }
      return;
    }
    // Record: one searched assembly that resolves every write into its
    // CSR value index, with per-device windows for later replay.
    ensure_own_slots();
    num::StampSlotPass* pass = own_pass(newton_pass, mode);
    pass->slots.clear();
    pass->windows.clear();
    pass->windows.reserve(devs.size());
    ctx.arm_slot_record(&pass->slots);
    for (const ckt::Device* d : devs) {
      const int b = static_cast<int>(pass->slots.size());
      d->stamp(ctx);
      pass->windows.emplace_back(b, static_cast<int>(pass->slots.size()));
    }
    ctx.disarm_slots();
    pass->recorded = true;
    publish_slots();
    return;
  }
  // Legacy searched path (dense target, or slots disabled): still
  // batched when enabled -- batching and slot replay are independent.
  if (use_batches_) {
    for (const BatchRun& run : runs)
      stamp_run(run.kind, devs.data() + run.begin,
                static_cast<std::size_t>(run.end - run.begin), ctx);
  } else {
    for (const ckt::Device* d : devs) d->stamp(ctx);
  }
}

void RealSystem::PhaseClock::begin() {
  const long i = calls++;
  weight = i < kExactCalls
               ? 1
               : ((i - kExactCalls) % kSamplePeriod == 0 ? kSamplePeriod : 0);
  if (weight != 0) t0 = Clock::now();
}

long RealSystem::PhaseClock::end_ns() const {
  return weight != 0 ? weight * ns_since(t0) : 0;
}

void RealSystem::assemble(const ckt::Netlist& nl, const num::RealVector& x,
                          const AssembleParams& p) {
  stamp_clock_.begin();
  if (kind_ != SolverKind::kSparse) {
    assemble_real(nl, x, p, djac_, rhs_);
    stats_.stamp_ns += stamp_clock_.end_ns();
    return;
  }
  if (!base_valid_ || !(p == base_p_)) {
    // Stamp every x-independent device (and the gshunt guard) once for
    // this parameter set; Newton iterations below only restore it.
    sjac_.clear_values();
    base_rhs_.assign(static_cast<std::size_t>(n_), 0.0);
    ckt::StampContext ctx(p.mode, x, sjac_, base_rhs_);
    set_params(ctx, p);
    stamp_pass(linear_, linear_runs_, /*newton_pass=*/false, ctx, p.mode);
    const int nodes = nl.node_count() - 1;
    const num::StampSlotTables* t =
        slots_own_ ? slots_own_.get() : slots_shared_.get();
    if (use_slots_ && t && static_cast<int>(t->diag.size()) == nodes) {
      auto& vals = sjac_.values();
      for (int i = 0; i < nodes; ++i)
        vals[static_cast<std::size_t>(t->diag[i])] += p.gshunt;
    } else {
      for (int i = 0; i < nodes; ++i) sjac_.add(i, i, p.gshunt);
    }
    base_vals_ = sjac_.values();
    base_p_ = p;
    base_valid_ = true;
  } else {
    sjac_.values() = base_vals_;
  }
  rhs_ = base_rhs_;
  ckt::StampContext ctx(p.mode, x, sjac_, rhs_);
  set_params(ctx, p);
  stamp_pass(nonlinear_, nonlinear_runs_, /*newton_pass=*/true, ctx, p.mode);
  // Fault-injection site: a device evaluation producing NaN surfaces in
  // the assembled system exactly like a real model-evaluation blow-up
  // (the Newton loop must reject the candidate as kNonFinite and
  // recover, never accept or crash).
  if (MSIM_FAULTPOINT("device_eval_nan") && !rhs_.empty())
    rhs_[0] = std::numeric_limits<double>::quiet_NaN();
  stats_.stamp_ns += stamp_clock_.end_ns();
}

void RealSystem::assemble_rhs_only(const ckt::Netlist& nl,
                                   const num::RealVector& x,
                                   const AssembleParams& p) {
  stamp_clock_.begin();
  rhs_.assign(static_cast<std::size_t>(n_), 0.0);
  ckt::StampContext ctx(p.mode, x, rhs_);
  set_params(ctx, p);
  for (const auto& d : nl.devices()) d->stamp(ctx);
  // gshunt is Jacobian-only; nothing to add on the rhs.
  stats_.stamp_ns += stamp_clock_.end_ns();
}

bool RealSystem::factor(const char* reason) {
  ++stats_.factor_count;
  ++stats_.refactor_reasons[reason];
  g_factor_calls.fetch_add(1, std::memory_order_relaxed);
  // Fault-injection site: a forced numeric-factorization failure, seen
  // by callers exactly like a singular matrix (recovery paths: Newton
  // homotopy escalation, transient step diagnosis, AC/noise keep-prefix,
  // and the held-LU invalidation contract of the linear fast path).
  if (MSIM_FAULTPOINT("sparse_factor_fail")) return false;
  factor_clock_.begin();
  if (kind_ == SolverKind::kSparse) {
    slu_.factor(sjac_);
    stats_.factor_ns += factor_clock_.end_ns();
    if (slu_.singular()) return false;
    // A fresh analysis ran (first factor, or a pivot-floor re-analysis):
    // publish it so the netlist's other systems can adopt it.
    if (cache_ && slu_.symbolic_serial() != exported_serial_) {
      cache_->symbolic = slu_.export_symbolic();
      exported_serial_ = slu_.symbolic_serial();
    }
    return true;
  }
  dlu_.factor(djac_);
  stats_.factor_ns += factor_clock_.end_ns();
  return !dlu_.singular();
}

int RealSystem::singular_col() const {
  return kind_ == SolverKind::kSparse ? slu_.singular_col()
                                      : dlu_.singular_col();
}

double RealSystem::condition_estimate() const {
  return kind_ == SolverKind::kSparse ? slu_.condition_estimate() : 0.0;
}

namespace {

// Condition-estimate threshold past which a solve is cheap insurance:
// with cond(A) >= 1e12 a double solve can have lost most of its
// significant digits, so the residual check (one mat-vec) is worth its
// cost.  Well-conditioned systems -- all of them, in a healthy run --
// never pay more than the two-load estimate itself.
constexpr double kCondCheckThreshold = 1e12;

}  // namespace

void RealSystem::solve(num::RealVector& x) {
  solve_clock_.begin();
  if (kind_ != SolverKind::kSparse) {
    dlu_.solve(rhs_, x);
    stats_.solve_ns += solve_clock_.end_ns();
    return;
  }
  slu_.solve(rhs_, x);

  // Numerical-health monitor: on an ill-conditioned factorization (or
  // under the deterministic "solve_perturb" fault), verify the residual
  // and run one round of iterative refinement with the cached LU.  If
  // the refined solution still fails the check, the factorization
  // itself is no longer trustworthy (pivot growth): force a fresh one
  // and re-solve.
  bool force_check = false;
  if (MSIM_FAULTPOINT("solve_perturb") && !x.empty()) {
    x[0] += 1e3;  // deterministically corrupt the solution
    force_check = true;
  }
  if (force_check || slu_.condition_estimate() > kCondCheckThreshold) {
    const std::size_t n = static_cast<std::size_t>(n_);
    double rhs_inf = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      rhs_inf = std::max(rhs_inf, std::abs(rhs_[i]));
    double x_inf = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      x_inf = std::max(x_inf, std::abs(x[i]));
    double a_max = 0.0;
    for (double v : sjac_.values())
      a_max = std::max(a_max, std::abs(v));
    // Backward-error scale ||A||_max * ||x||_inf + ||rhs||_inf; the
    // tolerance admits ~1e-9 relative residual before intervening.
    const double tol = 1e-9 * (a_max * x_inf + rhs_inf) + 1e-300;
    auto residual_inf = [&]() {
      sjac_.multiply(x, res_);
      double rinf = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        res_[i] = rhs_[i] - res_[i];
        if (std::isnan(res_[i])) return std::numeric_limits<double>::max();
        rinf = std::max(rinf, std::abs(res_[i]));
      }
      return rinf;
    };
    if (residual_inf() > tol) {
      // One refinement round: the correction reuses the cached LU
      // (res_ already holds rhs - A x).
      slu_.solve(res_, dx_);
      for (std::size_t i = 0; i < n; ++i) x[i] += dx_[i];
      ++stats_.refine_count;
      if (MSIM_FAULTPOINT("refine_perturb") && !x.empty())
        x[0] += 1e3;  // force the refinement to "fail" deterministically
      if (residual_inf() > tol) {
        // Refinement could not rescue the cached LU: refactor the
        // freshly assembled matrix and solve against it.
        stats_.solve_ns += solve_clock_.end_ns();
        if (factor("iterative_refinement")) {
          solve_clock_.begin();
          slu_.solve(rhs_, x);
          stats_.solve_ns += solve_clock_.end_ns();
        }
        return;
      }
    }
  }
  stats_.solve_ns += solve_clock_.end_ns();
}

void RealSystem::solve_held(const num::RealVector& b, num::RealVector& y) {
  if (kind_ == SolverKind::kSparse)
    slu_.solve(b, y);
  else
    dlu_.solve(b, y);
}

// ----------------------------------------------------------- EnsembleSystem

struct EnsembleSystem::Impl {
  int n = 0;
  int nlanes = 0;
  int nodes = 0;  // non-ground node count (gshunt diagonal loop)
  std::shared_ptr<const num::RealSparseMatrix> skeleton;
  // Structure copy: add_at searches while recording slot tables, and
  // the per-lane gather target for numeric factorization.
  num::RealSparseMatrix scratch;
  std::shared_ptr<const num::SparseSymbolic> sym;
  std::vector<num::RealSparseLu> lus;  // per-lane numeric payloads
  num::EnsembleValues vals, base_vals;
  std::vector<num::RealVector> rhs, base_rhs;
  std::vector<AssembleParams> base_p;
  std::vector<char> base_valid;
  // Per-lane device lists, linear/nonlinear split in netlist order; the
  // same list position holds the lane-local instance of one circuit
  // position in every lane.
  std::vector<std::vector<const ckt::Device*>> lin, nonlin;
  struct Run {
    int kind = 0;  // BatchKind
    int begin = 0;
    int end = 0;
  };
  std::vector<Run> lin_runs, nonlin_runs;  // segmented from lane 0
  // Private mutable slot tables, seeded from the nominal lane's cache
  // when valid but never published back (the per-sample path owns that
  // protocol; nothing aliases these).
  num::StampSlotTables tables;
  num::RealVector res, dx;
  FactorStats stats;
  SampledClock stamp_clock, factor_clock, solve_clock;
  // Per-call staging, reused across calls to avoid reallocation.  The
  // contexts are rebuilt each assemble -- they hold references into
  // that call's rhs/xs vectors.
  std::vector<ckt::StampContext> ctxs;
  std::vector<int> need;
  std::vector<const ckt::Device* const*> devp;
  std::vector<ckt::StampContext*> ctxp;

  num::StampSlotPass& pass_for(bool newton_pass, ckt::AnalysisMode mode) {
    if (mode == ckt::AnalysisMode::kDcOp)
      return newton_pass ? tables.newton_dcop : tables.base_dcop;
    return newton_pass ? tables.newton_tran : tables.base_tran;
  }

  ckt::StampContext& push_ctx(const AssembleParams& p,
                              const num::RealVector& x, num::RealVector& r,
                              double* lane_base) {
    ctxs.emplace_back(p.mode, x, scratch, r);
    ckt::StampContext& c = ctxs.back();
    c.time = p.time;
    c.dt = p.dt;
    c.temp_k = p.temp_k;
    c.gmin = p.gmin;
    c.use_trapezoidal = p.use_trapezoidal;
    c.source_scale = p.source_scale;
    c.set_slot_target(lane_base, nlanes);
    return c;
  }

  // Windowed replay through the plain virtual stamp for one lane
  // (devices [begin, end) of the pass); the fallback whenever a
  // lockstep kernel does not exist or a table is freshly recorded.
  bool replay_generic(ckt::StampContext& c,
                      const std::vector<const ckt::Device*>& devs,
                      const num::StampSlotPass& pass, std::size_t begin,
                      std::size_t end) {
    bool ok = true;
    for (std::size_t j = begin; j < end; ++j) {
      const auto [b, e] = pass.windows[j];
      c.arm_slot_replay(pass.slots.data() + b, e - b);
      devs[j]->stamp(c);
      ok &= c.finish_slot_replay();
    }
    return ok;
  }

  // One lane-major pass over a device split.  With a recorded table the
  // homogeneous runs dispatch to the per-class stamp_lanes() kernels
  // (device-outer / lane-inner over the shared slot windows); a pass
  // not yet recorded records with the first active lane (searched
  // assembly) and replays the fresh table for the rest.  Any replay
  // mismatch fell back to searched writes (values stay correct) and
  // schedules a re-record by clearing `recorded`.
  void lane_pass(const int* active, int nactive,
                 std::vector<ckt::StampContext>& cxs,
                 const std::vector<std::vector<const ckt::Device*>>& devlists,
                 const std::vector<Run>& runs, num::StampSlotPass& pass) {
    const std::size_t ndev =
        devlists[static_cast<std::size_t>(active[0])].size();
    if (ndev == 0) return;
    if (!pass.recorded || pass.windows.size() != ndev) {
      pass.slots.clear();
      pass.windows.clear();
      pass.windows.reserve(ndev);
      {
        ckt::StampContext& c = cxs[0];
        c.arm_slot_record(&pass.slots);
        for (const ckt::Device* d :
             devlists[static_cast<std::size_t>(active[0])]) {
          const int b = static_cast<int>(pass.slots.size());
          d->stamp(c);
          pass.windows.emplace_back(b, static_cast<int>(pass.slots.size()));
        }
        c.disarm_slots();
      }
      pass.recorded = true;
      bool ok = true;
      for (int i = 1; i < nactive; ++i)
        ok &= replay_generic(cxs[static_cast<std::size_t>(i)],
                             devlists[static_cast<std::size_t>(active[i])],
                             pass, 0, ndev);
      if (!ok) pass.recorded = false;
      return;
    }
    bool ok = true;
    for (const Run& run : runs) {
      devp.clear();
      ctxp.clear();
      for (int i = 0; i < nactive; ++i) {
        devp.push_back(
            devlists[static_cast<std::size_t>(active[i])].data() + run.begin);
        ctxp.push_back(&cxs[static_cast<std::size_t>(i)]);
      }
      ckt::EnsembleRun er;
      er.devs = devp.data();
      er.ndev = static_cast<std::size_t>(run.end - run.begin);
      er.nlanes = static_cast<std::size_t>(nactive);
      er.ctx = ctxp.data();
      er.slots = pass.slots.data();
      er.windows = pass.windows.data() + run.begin;
      switch (run.kind) {
        case kResistorKind: ok &= dev::Resistor::stamp_lanes(er); break;
        case kCapacitorKind: ok &= dev::Capacitor::stamp_lanes(er); break;
        case kMosfetKind: ok &= dev::Mosfet::stamp_lanes(er); break;
        case kDiodeKind: ok &= dev::Diode::stamp_lanes(er); break;
        case kBjtKind: ok &= dev::Bjt::stamp_lanes(er); break;
        case kVSourceKind: ok &= dev::VSource::stamp_lanes(er); break;
        case kISourceKind: ok &= dev::ISource::stamp_lanes(er); break;
        default:
          for (int i = 0; i < nactive; ++i)
            ok &= replay_generic(
                cxs[static_cast<std::size_t>(i)],
                devlists[static_cast<std::size_t>(active[i])], pass,
                static_cast<std::size_t>(run.begin),
                static_cast<std::size_t>(run.end));
      }
    }
    if (!ok) pass.recorded = false;
  }
};

EnsembleSystem::EnsembleSystem() : impl_(std::make_unique<Impl>()) {}
EnsembleSystem::~EnsembleSystem() = default;
EnsembleSystem::EnsembleSystem(EnsembleSystem&&) noexcept = default;
EnsembleSystem& EnsembleSystem::operator=(EnsembleSystem&&) noexcept =
    default;

int EnsembleSystem::lanes() const { return impl_->nlanes; }
int EnsembleSystem::unknowns() const { return impl_->n; }
const FactorStats& EnsembleSystem::stats() const { return impl_->stats; }

int EnsembleSystem::lane_singular_col(int lane) const {
  return impl_->lus[static_cast<std::size_t>(lane)].singular_col();
}

void EnsembleSystem::invalidate_lanes(const int* lane_ids, int n) {
  for (int i = 0; i < n; ++i)
    impl_->base_valid[static_cast<std::size_t>(lane_ids[i])] = 0;
}

bool EnsembleSystem::init(const std::vector<ckt::Netlist*>& lanes) {
  *impl_ = Impl{};
  Impl& im = *impl_;
  if (lanes.empty()) return false;
  for (ckt::Netlist* nl : lanes)
    if (!nl) return false;
  ckt::Netlist& nom = *lanes[0];
  const int n = nom.assign_unknowns();
  const std::size_t ndev = nom.devices().size();
  const std::uint64_t fp = nom.topology_fingerprint();
  for (std::size_t k = 1; k < lanes.size(); ++k) {
    ckt::Netlist& nl = *lanes[k];
    if (nl.assign_unknowns() != n || nl.devices().size() != ndev ||
        nl.topology_fingerprint() != fp)
      return false;
  }
  im.n = n;
  im.nlanes = static_cast<int>(lanes.size());
  im.nodes = nom.node_count() - 1;
  // Shared structure: adopt the nominal lane's cached skeleton,
  // symbolic analysis and slot tables when valid, else build fresh.
  // Reads only -- the ensemble owns its structure privately and never
  // writes any lane's cache.
  const num::SolverCache& cache = nom.solver_cache();
  if (cache.skeleton && cache.unknowns == n && cache.devices == ndev &&
      cache.structure_rev == nom.structure_revision()) {
    im.skeleton = cache.skeleton;
    im.sym = cache.symbolic;
    if (cache.slots && cache.slots->skeleton == cache.skeleton.get() &&
        cache.slots->nnz == cache.skeleton->nnz())
      im.tables = *cache.slots;
  } else {
    im.skeleton =
        std::make_shared<const num::RealSparseMatrix>(mna_pattern(nom));
  }
  im.scratch = *im.skeleton;
  im.tables.skeleton = im.skeleton.get();
  im.tables.nnz = im.scratch.nnz();
  if (static_cast<int>(im.tables.diag.size()) != im.nodes) {
    im.tables.diag.resize(static_cast<std::size_t>(im.nodes));
    for (int i = 0; i < im.nodes; ++i)
      im.tables.diag[static_cast<std::size_t>(i)] =
          im.scratch.find_index(i, i);  // never -1: mna_pattern adds them
  }
  im.lus.resize(static_cast<std::size_t>(im.nlanes));
  if (im.sym)
    for (auto& lu : im.lus) lu.adopt_symbolic(im.sym);
  im.vals.init(im.scratch.nnz(), im.nlanes);
  im.base_vals.init(im.scratch.nnz(), im.nlanes);
  im.rhs.assign(static_cast<std::size_t>(im.nlanes),
                num::RealVector(static_cast<std::size_t>(n), 0.0));
  im.base_rhs = im.rhs;
  im.base_p.assign(static_cast<std::size_t>(im.nlanes), AssembleParams{});
  im.base_valid.assign(static_cast<std::size_t>(im.nlanes), 0);
  im.lin.resize(static_cast<std::size_t>(im.nlanes));
  im.nonlin.resize(static_cast<std::size_t>(im.nlanes));
  for (std::size_t k = 0; k < lanes.size(); ++k)
    for (const auto& d : lanes[k]->devices())
      (d->is_nonlinear() ? im.nonlin[k] : im.lin[k]).push_back(d.get());
  auto segment = [](const std::vector<const ckt::Device*>& devs) {
    std::vector<Impl::Run> runs;
    for (std::size_t i = 0; i < devs.size();) {
      const int kind = batch_kind(devs[i]);
      std::size_t j = i + 1;
      while (j < devs.size() && batch_kind(devs[j]) == kind) ++j;
      runs.push_back({kind, static_cast<int>(i), static_cast<int>(j)});
      i = j;
    }
    return runs;
  };
  im.lin_runs = segment(im.lin[0]);
  im.nonlin_runs = segment(im.nonlin[0]);
  im.ctxs.reserve(static_cast<std::size_t>(im.nlanes));
  return true;
}

void EnsembleSystem::assemble(const int* active, int nactive,
                              const std::vector<num::RealVector>& xs,
                              const AssembleParams& p) {
  Impl& im = *impl_;
  im.stamp_clock.begin();
  // Per-lane linear base images: restamp only the lanes whose
  // AssembleParams changed (or were invalidated); everyone else
  // restores by a lane copy, exactly like RealSystem's base image.
  im.need.clear();
  for (int i = 0; i < nactive; ++i) {
    const int k = active[i];
    if (!im.base_valid[static_cast<std::size_t>(k)] ||
        !(p == im.base_p[static_cast<std::size_t>(k)]))
      im.need.push_back(k);
  }
  if (!im.need.empty()) {
    im.ctxs.clear();
    for (int k : im.need) {
      im.base_vals.clear_lane(k);
      im.base_rhs[static_cast<std::size_t>(k)].assign(
          static_cast<std::size_t>(im.n), 0.0);
      im.push_ctx(p, xs[static_cast<std::size_t>(k)],
                  im.base_rhs[static_cast<std::size_t>(k)],
                  im.base_vals.data() + k);
    }
    im.lane_pass(im.need.data(), static_cast<int>(im.need.size()), im.ctxs,
                 im.lin, im.lin_runs, im.pass_for(false, p.mode));
    for (int k : im.need) {
      for (int i = 0; i < im.nodes; ++i)
        im.base_vals.at(im.tables.diag[static_cast<std::size_t>(i)], k) +=
            p.gshunt;
      im.base_p[static_cast<std::size_t>(k)] = p;
      im.base_valid[static_cast<std::size_t>(k)] = 1;
    }
  }
  for (int i = 0; i < nactive; ++i) {
    const int k = active[i];
    im.vals.copy_lane_from(im.base_vals, k, k);
    im.rhs[static_cast<std::size_t>(k)] =
        im.base_rhs[static_cast<std::size_t>(k)];
  }
  im.ctxs.clear();
  for (int i = 0; i < nactive; ++i) {
    const int k = active[i];
    im.push_ctx(p, xs[static_cast<std::size_t>(k)],
                im.rhs[static_cast<std::size_t>(k)], im.vals.data() + k);
  }
  im.lane_pass(active, nactive, im.ctxs, im.nonlin, im.nonlin_runs,
               im.pass_for(true, p.mode));
  // Fault parity with RealSystem::assemble, plus a lane-addressed site
  // for deterministic cohort-split tests: poisoning one lane's rhs must
  // split that lane off without disturbing its cohort-mates' results.
  if (MSIM_FAULTPOINT("device_eval_nan") && nactive > 0)
    im.rhs[static_cast<std::size_t>(active[0])][0] =
        std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < nactive; ++i)
    if (MSIM_FAULTPOINT_AT("ensemble_lane_nan", active[i]))
      im.rhs[static_cast<std::size_t>(active[i])][0] =
          std::numeric_limits<double>::quiet_NaN();
  im.stats.stamp_ns += im.stamp_clock.end_ns();
}

void EnsembleSystem::update(const int* active, int nactive,
                            std::vector<num::RealVector>& x_new, bool* ok) {
  Impl& im = *impl_;
  const std::size_t n = static_cast<std::size_t>(im.n);
  im.factor_clock.begin();
  for (int i = 0; i < nactive; ++i) {
    if (!ok[i]) continue;
    const int k = active[i];
    ++im.stats.factor_count;
    ++im.stats.refactor_reasons["full_newton"];
    g_factor_calls.fetch_add(1, std::memory_order_relaxed);
    // Same injected-failure semantics as RealSystem::factor.
    if (MSIM_FAULTPOINT("sparse_factor_fail")) {
      ok[i] = false;
      continue;
    }
    im.vals.gather_lane(k, im.scratch.values());
    im.lus[static_cast<std::size_t>(k)].factor(im.scratch);
    if (im.lus[static_cast<std::size_t>(k)].singular()) {
      ok[i] = false;
      continue;
    }
    // The first successful factor of the ensemble ran the symbolic
    // analysis; share its pivot order with every other lane so they
    // refactor numerically from their first attempt.
    if (!im.sym) {
      im.sym = im.lus[static_cast<std::size_t>(k)].export_symbolic();
      for (auto& lu : im.lus)
        if (!lu.has_symbolic()) lu.adopt_symbolic(im.sym);
    }
  }
  im.stats.factor_ns += im.factor_clock.end_ns();
  im.solve_clock.begin();
  for (int i = 0; i < nactive; ++i) {
    if (!ok[i]) continue;
    const int k = active[i];
    num::RealVector& rhs = im.rhs[static_cast<std::size_t>(k)];
    num::RealVector& xn = x_new[static_cast<std::size_t>(k)];
    num::RealSparseLu& lu = im.lus[static_cast<std::size_t>(k)];
    lu.solve(rhs, xn);
    if (lu.condition_estimate() > kCondCheckThreshold) {
      // Ill-conditioned lane: residual check plus one refinement round,
      // mirroring RealSystem::solve.  The factorization here is already
      // fresh, so the per-sample path's forced-refactor escalation has
      // no analogue; persistent trouble shows up as Newton
      // non-convergence.
      double rhs_inf = 0.0, x_inf = 0.0, a_max = 0.0;
      for (std::size_t r = 0; r < n; ++r) {
        rhs_inf = std::max(rhs_inf, std::abs(rhs[r]));
        x_inf = std::max(x_inf, std::abs(xn[r]));
      }
      const double* lv = im.vals.data() + k;
      for (int e = 0; e < im.vals.nnz; ++e)
        a_max = std::max(a_max,
                         std::abs(lv[static_cast<std::size_t>(e) *
                                     static_cast<std::size_t>(im.nlanes)]));
      const double tol = 1e-9 * (a_max * x_inf + rhs_inf) + 1e-300;
      auto residual_inf = [&]() {
        num::ensemble_multiply(*im.skeleton, im.vals, k, xn, im.res);
        double rinf = 0.0;
        for (std::size_t r = 0; r < n; ++r) {
          im.res[r] = rhs[r] - im.res[r];
          if (std::isnan(im.res[r]))
            return std::numeric_limits<double>::max();
          rinf = std::max(rinf, std::abs(im.res[r]));
        }
        return rinf;
      };
      if (residual_inf() > tol) {
        lu.solve(im.res, im.dx);
        for (std::size_t r = 0; r < n; ++r) xn[r] += im.dx[r];
        ++im.stats.refine_count;
      }
    }
  }
  im.stats.solve_ns += im.solve_clock.end_ns();
}

AcImage::AcImage(const ckt::Netlist& nl, SolverKind kind, double gshunt)
    : nl_(nl), kind_(kind), gshunt_(gshunt) {
  if (kind_ != SolverKind::kSparse) return;
  mna_skeleton(nl);  // builds + publishes skeleton and slot tables if stale
  auto& cache = nl.solver_cache();
  skeleton_ = cache.skeleton;
  symbolic_ = cache.symbolic;
  const num::StampSlotPass& cached = cache.slots->ac;
  // A device whose writes diverge from the cached table (its mismatched
  // writes were searched, so the image is right either way) gets the
  // table re-recorded below.
  if (cached.recorded && cached.windows.size() == nl.devices().size() &&
      stamp(&cached, nullptr))
    return;
  num::StampSlotPass pass;
  stamp(nullptr, &pass);
  // Copy-on-write: concurrent readers (jobs holding adopted snapshots)
  // may be replaying the published tables.
  auto t = std::make_shared<num::StampSlotTables>(*cache.slots);
  t->ac = std::move(pass);
  cache.slots = std::move(t);
}

bool AcImage::stamp(const num::StampSlotPass* replay,
                    num::StampSlotPass* record) {
  const auto& devs = nl_.devices();
  g_.assign(static_cast<std::size_t>(skeleton_->nnz()), 0.0);
  reactive_.clear();
  rhs_.assign(static_cast<std::size_t>(nl_.unknown_count()), {0.0, 0.0});
  ckt::AcStampContext ctx(*skeleton_, g_, reactive_, rhs_);
  if (record) {
    record->windows.reserve(devs.size());
    ctx.arm_slot_record(&record->slots);
  }
  bool ok = true;
  for (std::size_t i = 0; i < devs.size(); ++i) {
    if (replay) {
      const auto [b, e] = replay->windows[i];
      ctx.arm_slot_replay(replay->slots.data() + b, e - b);
      devs[i]->stamp_ac(ctx);
      ok = ctx.finish_slot_replay() && ok;
    } else {
      const int b = static_cast<int>(record->slots.size());
      devs[i]->stamp_ac(ctx);
      record->windows.emplace_back(b, static_cast<int>(record->slots.size()));
    }
  }
  if (record) record->recorded = true;
  // mna_skeleton resolved every node diagonal into the slot tables.
  for (int idx : nl_.solver_cache().slots->diag)
    g_[static_cast<std::size_t>(idx)] += gshunt_;
  return ok;
}

ComplexSystem::ComplexSystem(const AcImage& image) : image_(image) {
  if (image_.kind_ != SolverKind::kSparse) return;
  sjac_ = num::ComplexSparseMatrix(*image_.skeleton_);
  // Adopt the large-signal system's pivot order when there is one (the
  // usual case: AC/noise run after solve_op).
  if (image_.symbolic_) slu_.adopt_symbolic(image_.symbolic_);
}

void ComplexSystem::assemble(double omega) {
  if (image_.kind_ != SolverKind::kSparse) {
    assemble_ac(image_.nl_, omega, image_.gshunt_, djac_, drhs_);
    return;
  }
  auto& vals = sjac_.values();
  for (std::size_t k = 0; k < vals.size(); ++k) vals[k] = {image_.g_[k], 0.0};
  for (const ckt::AcReactive& r : image_.reactive_) {
    auto& v = vals[static_cast<std::size_t>(r.idx)];
    v.imag(v.imag() + omega * r.c);
  }
}

const num::ComplexVector& ComplexSystem::rhs() const {
  return image_.kind_ == SolverKind::kSparse ? image_.rhs_ : drhs_;
}

bool ComplexSystem::factor() {
  g_factor_calls.fetch_add(1, std::memory_order_relaxed);
  if (image_.kind_ == SolverKind::kSparse) {
    slu_.factor(sjac_);
    return !slu_.singular();
  }
  dlu_.factor(djac_);
  return !dlu_.singular();
}

int ComplexSystem::singular_col() const {
  return image_.kind_ == SolverKind::kSparse ? slu_.singular_col()
                                             : dlu_.singular_col();
}

void ComplexSystem::solve(num::ComplexVector& x) {
  if (image_.kind_ == SolverKind::kSparse)
    slu_.solve(image_.rhs_, x);
  else
    dlu_.solve(drhs_, x);
}

void ComplexSystem::solve_transpose(const num::ComplexVector& b,
                                    num::ComplexVector& x) {
  if (image_.kind_ == SolverKind::kSparse)
    slu_.solve_transpose(b, x);
  else
    dlu_.solve_transpose(b, x);
}

}  // namespace msim::an
