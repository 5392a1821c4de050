// Device interface: every circuit element implements MNA stamping for the
// large-signal (DC / transient) system, small-signal AC stamping around a
// saved operating point, and enumeration of its physical noise sources.
//
// Stamping is target-agnostic: the same stamp()/stamp_ac() code writes
// into either the dense Matrix or the fixed-pattern SparseMatrix the
// analysis selected.  For the sparse path, declare_stamps() registers a
// device's possible Jacobian positions once per netlist; the default
// registers the full envelope (every pair of the device's own unknowns),
// which is correct for any stamp a device can legally make.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "circuit/node.h"
#include "numeric/matrix.h"
#include "numeric/sparse.h"

namespace msim::ckt {

class RangeContext;  // circuit/range.h (value-range static analysis)

enum class AnalysisMode {
  kDcOp,       // capacitors open, inductors short (via 0 V branch)
  kTransient,  // dynamic elements use companion models
};

// Recording target for the static-analysis layer: captures every
// Jacobian position a stamp call actually writes, without touching any
// matrix.  Deliberately performs no bounds checks so that out-of-range
// writes are *recorded* and reported by the stamp-contract checker
// instead of asserting mid-stamp.
struct StampRecord {
  std::vector<std::pair<int, int>> entries;  // (row, col) in call order
  void add(int row, int col) { entries.emplace_back(row, col); }
  void clear() { entries.clear(); }
};

// The Jacobian writes of a conductance g between nodes p and n (either
// may be ground), in the order StampContext::add_conductance makes them,
// through jac(row_unknown, col_unknown, value).  Device stamp code that
// is templated on its Jacobian sink (see replay_window below) uses it to
// emit one write sequence for every target.
template <typename Jac>
void conductance_writes(NodeId p, NodeId n, double g, Jac& jac) {
  if (p != kGround) jac(p - 1, p - 1, g);
  if (n != kGround) jac(n - 1, n - 1, g);
  if (p != kGround && n != kGround) {
    jac(p - 1, n - 1, -g);
    jac(n - 1, p - 1, -g);
  }
}

// Context handed to Device::stamp().  The Newton iteration solves
//   jac * x_next = rhs
// so nonlinear devices stamp their Norton linearization around the
// candidate solution `x`:  g into jac, (g*v0 - i(v0)) into rhs.
class StampContext {
 public:
  StampContext(AnalysisMode mode, const num::RealVector& x,
               num::RealMatrix& jac, num::RealVector& rhs)
      : mode_(mode), x_(x), dense_(&jac), rhs_(rhs) {}
  StampContext(AnalysisMode mode, const num::RealVector& x,
               num::RealSparseMatrix& jac, num::RealVector& rhs)
      : mode_(mode), x_(x), sparse_(&jac), rhs_(rhs),
        svals_(jac.values().data()) {}
  // Recording target: Jacobian writes are captured as positions only
  // (the stamp-contract checker and structural analyzer consume them).
  StampContext(AnalysisMode mode, const num::RealVector& x,
               StampRecord& record, num::RealVector& rhs)
      : mode_(mode), x_(x), record_(&record), rhs_(rhs) {}
  // RHS-only target: Jacobian writes are discarded.  The linear fast
  // path re-stamps time-dependent sources against a factorization that
  // is still valid, so only the rhs needs fresh values.
  StampContext(AnalysisMode mode, const num::RealVector& x,
               num::RealVector& rhs)
      : mode_(mode), x_(x), rhs_(rhs) {}

  AnalysisMode mode() const { return mode_; }
  double time = 0.0;    // time the sources are read at (s): the transient
                        // step's, or OpOptions::source_time for DC
  double dt = 0.0;      // current transient step (s); 0 for DC
  double temp_k = 300.15;
  double gmin = 0.0;    // homotopy conductance added by nonlinear junctions
  bool use_trapezoidal = true;  // integration method for companion models
  double source_scale = 1.0;    // source-stepping homotopy factor (DC only)

  // Node voltage in the current candidate solution (ground -> 0).
  double v(NodeId n) const { return n == kGround ? 0.0 : x_[n - 1]; }
  // Value of an arbitrary unknown (node voltage or branch current).
  double unknown(int idx) const { return x_[idx]; }
  std::size_t size() const { return x_.size(); }

  void add_jac(int row_unknown, int col_unknown, double g) {
    if (sparse_) {
      // Every value write goes through (svals_, sstride_): by default
      // that is the matrix's own flat values array (stride 1); an
      // ensemble assembly retargets it at one lane of a lane-blocked
      // value array (stride = lane count) via set_slot_target(), and
      // the searched fallbacks below then only use sparse_ to resolve
      // the CSR index, never to store the value.
      if (replay_) {
        if (replay_cursor_ < replay_n_) {
          const num::StampSlot& s = replay_[replay_cursor_];
          if (s.row == row_unknown && s.col == col_unknown) {
            svals_[static_cast<std::size_t>(s.idx) *
                   static_cast<std::size_t>(sstride_)] += g;
            ++replay_cursor_;
            return;
          }
        }
        // The device emitted a write its slot window does not predict
        // (gmin toggling, a mode-dependent branch): fall back to the
        // searched path for this write and let the caller re-record.
        replay_ok_ = false;
        svals_[static_cast<std::size_t>(
                   sparse_->add_at(row_unknown, col_unknown)) *
               static_cast<std::size_t>(sstride_)] += g;
        return;
      }
      if (slot_record_) {
        const int idx = sparse_->add_at(row_unknown, col_unknown);
        svals_[static_cast<std::size_t>(idx) *
               static_cast<std::size_t>(sstride_)] += g;
        slot_record_->push_back({row_unknown, col_unknown, idx});
        return;
      }
      svals_[static_cast<std::size_t>(
                 sparse_->add_at(row_unknown, col_unknown)) *
             static_cast<std::size_t>(sstride_)] += g;
    } else if (dense_)
      (*dense_)(row_unknown, col_unknown) += g;
    else if (record_)
      record_->add(row_unknown, col_unknown);
  }

  // --- Stamp-slot recording / replay (sparse target only) -------------
  // Recording rides a normal assembly: every Jacobian write resolves
  // its CSR value index once (searched) and appends a StampSlot.  A
  // replay validates each incoming (row, col) against the recorded
  // sequence and writes values()[idx] directly -- zero searches.  A
  // write the table does not predict degrades that single write to the
  // searched path and marks the replay failed (finish_slot_replay()
  // returns false) so the caller schedules a re-record; the assembled
  // matrix is correct either way.  No-ops on dense/record/rhs-only
  // targets.
  void arm_slot_record(std::vector<num::StampSlot>* out) {
    if (sparse_) slot_record_ = out;
  }
  void arm_slot_replay(const num::StampSlot* slots, int n) {
    if (!sparse_) return;
    replay_ = slots;
    replay_n_ = n;
    replay_cursor_ = 0;
    replay_ok_ = true;
  }
  // Retargets Jacobian value writes at an external value array: slot
  // index i lands at base[i * stride].  The ensemble assembler points
  // each lane's context at its lane of a num::EnsembleValues block
  // (base = vals.data() + lane, stride = lane count).  Sparse target
  // only; the matrix itself is then used solely for index resolution.
  void set_slot_target(double* base, int stride) {
    if (!sparse_) return;
    svals_ = base;
    sstride_ = stride;
  }
  // Ends the current replay window; true when every write matched.  A
  // device emitting a strict PREFIX of its recorded sequence is a match
  // (the missing trailing writes simply contribute nothing).
  bool finish_slot_replay() {
    const bool ok = replay_ok_;
    replay_ = nullptr;
    replay_n_ = 0;
    replay_cursor_ = 0;
    replay_ok_ = true;
    return ok;
  }
  void disarm_slots() {
    slot_record_ = nullptr;
    replay_ = nullptr;
    replay_n_ = 0;
    replay_cursor_ = 0;
    replay_ok_ = true;
  }
  // The value a Jacobian write to CSR value index `idx` accumulates into
  // (sparse target; honours set_slot_target).  Kernels replaying a
  // verified slot table write here directly (replay_window below).
  double& slot_value(int idx) {
    return svals_[static_cast<std::size_t>(idx) *
                  static_cast<std::size_t>(sstride_)];
  }
  // Conductance stamp between two *nodes* (either may be ground).
  void add_conductance(NodeId p, NodeId n, double g) {
    auto jac = [this](int r, int c, double v) { add_jac(r, c, v); };
    conductance_writes(p, n, g, jac);
  }
  // RHS current `i` injected INTO node `n` (ground entries dropped).
  void add_current_into(NodeId n, double i) {
    if (n != kGround) rhs_[n - 1] += i;
  }
  void add_rhs(int row_unknown, double v) { rhs_[row_unknown] += v; }
  // Jacobian stamp with a node on the row and an arbitrary unknown column.
  void add_node_jac(NodeId row, int col_unknown, double g) {
    if (row != kGround) add_jac(row - 1, col_unknown, g);
  }
  void add_branch_jac(int row_unknown, NodeId col, double g) {
    if (col != kGround) add_jac(row_unknown, col - 1, g);
  }

 private:
  AnalysisMode mode_;
  const num::RealVector& x_;
  num::RealMatrix* dense_ = nullptr;
  num::RealSparseMatrix* sparse_ = nullptr;
  StampRecord* record_ = nullptr;
  num::RealVector& rhs_;
  // Slot machinery (see arm_slot_record / arm_slot_replay above).
  std::vector<num::StampSlot>* slot_record_ = nullptr;
  const num::StampSlot* replay_ = nullptr;
  // Value write target: the matrix's own values (stride 1) unless an
  // ensemble lane was installed via set_slot_target().
  double* svals_ = nullptr;
  int sstride_ = 1;
  int replay_n_ = 0;
  int replay_cursor_ = 0;
  bool replay_ok_ = true;
};

// One device's window of a slot-table replay.  Device classes whose
// Jacobian write sequence is fixed by their grounded terminals and by
// whether gmin > 0 template their stamp code on a Jacobian sink and pass
// it here as emit(jac), together with `writes`, the number of Jacobian
// writes the device emits now.
//
// `verified` says the table was already checked write by write against
// this device (or recorded from it).  Then, when the window holds exactly
// `writes` slots, every write goes straight to its recorded value slot
// and the (row, col) it names is not compared.  Otherwise the window
// replays through the checked path (StampContext::add_jac), which also
// gives the right matrix.  Returns false when the caller must re-record
// the table: a checked write missed, or a verified window's length no
// longer matches.
template <typename Emit>
bool replay_window(StampContext& ctx, const num::StampSlot* slots, int len,
                   bool verified, int writes, Emit&& emit) {
  if (verified && len == writes) {
    auto jac = [&ctx, slots](int, int, double v) mutable {
      ctx.slot_value(slots++->idx) += v;
    };
    emit(jac);
    return true;
  }
  ctx.arm_slot_replay(slots, len);
  auto jac = [&ctx](int r, int c, double v) { ctx.add_jac(r, c, v); };
  emit(jac);
  return ctx.finish_slot_replay() && !verified;
}

class Device;

// One homogeneous device run staged across ensemble lanes.  The
// ensemble assembler hands this to a device class's stamp_lanes()
// kernel: devs[k][j] is device j of the run in lane k (the same
// circuit position, lane-local instance), ctx[k] is lane k's
// StampContext already retargeted at its value block, and windows[j]
// is device j's recorded [begin, end) slot span — absolute indices
// into `slots`, shared by every lane (all lanes replay one slot
// table).  Kernels must preserve each lane's per-device write order
// (device j replays window j, in device order) and return false when
// any replay failed so the caller can re-record the pass.
struct EnsembleRun {
  const Device* const* const* devs = nullptr;
  std::size_t ndev = 0;    // devices in the run
  std::size_t nlanes = 0;  // active lanes
  StampContext* const* ctx = nullptr;
  const num::StampSlot* slots = nullptr;
  const std::pair<int, int>* windows = nullptr;  // absolute into `slots`
  // Per lane (indexed like ctx): nonzero when the table was checked
  // against that lane's devices, so kernels with a replay_window path
  // may write its windows straight to their slots.  Null = none.
  const char* verified = nullptr;
};

// A small-signal stamp value g + j*omega*c.  Every device's stamp_ac
// is affine in omega with g and c fixed by the saved operating point,
// so one stamp pass can serve a whole frequency sweep (an::AcImage).
struct AcValue {
  double g = 0.0;  // conductance-like real part
  double c = 0.0;  // coefficient of j*omega (capacitance, -inductance)
};
inline AcValue operator-(AcValue v) { return {-v.g, -v.c}; }

// One reactive term of a frequency-independent image: value slot `idx`
// of the CSR pattern receives j*omega*c.
struct AcReactive {
  int idx = -1;
  double c = 0.0;
};

// Context for small-signal stamping.  Point targets (a dense or sparse
// complex matrix) evaluate each write at one angular frequency as
// complex(g, omega*c); the image target keeps the affine form: real
// parts sum into `g` per CSR value slot and every write with c != 0
// appends (slot, c) in stamp order, so a later point fill adding
// omega*c term by term reproduces the point target's sums bit for bit.
class AcStampContext {
 public:
  AcStampContext(double omega, num::ComplexMatrix& jac,
                 num::ComplexVector& rhs)
      : omega_(omega), dense_(&jac), rhs_(rhs) {}
  AcStampContext(double omega, num::ComplexSparseMatrix& jac,
                 num::ComplexVector& rhs)
      : omega_(omega), sparse_(&jac), rhs_(rhs) {}
  // Image target over `pattern` (its values are not touched): `g` is
  // indexed like pattern.values().
  AcStampContext(const num::RealSparseMatrix& pattern, std::vector<double>& g,
                 std::vector<AcReactive>& reactive, num::ComplexVector& rhs)
      : pattern_(&pattern), g_(g.data()), reactive_(&reactive), rhs_(rhs) {}
  AcStampContext(StampRecord& record, num::ComplexVector& rhs)
      : record_(&record), rhs_(rhs) {}

  void add_jac(int row, int col, AcValue v) {
    if (pattern_) {
      const int idx = image_slot(row, col);
      g_[static_cast<std::size_t>(idx)] += v.g;
      if (v.c != 0.0) reactive_->push_back({idx, v.c});
    } else if (sparse_)
      sparse_->add(row, col, {v.g, omega_ * v.c});
    else if (dense_)
      (*dense_)(row, col) += std::complex<double>(v.g, omega_ * v.c);
    else
      record_->add(row, col);
  }

  // Slot recording / replay for the image target: same contract as
  // StampContext (a mismatched write degrades to the searched path and
  // fails the replay).  No-ops on the other targets.
  void arm_slot_record(std::vector<num::StampSlot>* out) {
    if (pattern_) slot_record_ = out;
  }
  void arm_slot_replay(const num::StampSlot* slots, int n) {
    if (!pattern_) return;
    replay_ = slots;
    replay_n_ = n;
    replay_cursor_ = 0;
    replay_ok_ = true;
  }
  bool finish_slot_replay() {
    const bool ok = replay_ok_;
    replay_ = nullptr;
    replay_n_ = 0;
    replay_cursor_ = 0;
    replay_ok_ = true;
    return ok;
  }
  void add_admittance(NodeId p, NodeId n, AcValue y) {
    if (p != kGround) add_jac(p - 1, p - 1, y);
    if (n != kGround) add_jac(n - 1, n - 1, y);
    if (p != kGround && n != kGround) {
      add_jac(p - 1, n - 1, -y);
      add_jac(n - 1, p - 1, -y);
    }
  }
  // Transconductance stamp: current gm*(v(cp)-v(cn)) flowing p -> n.
  void add_transconductance(NodeId p, NodeId n, NodeId cp, NodeId cn,
                            AcValue gm) {
    auto at = [&](NodeId r, NodeId c, AcValue v) {
      if (r != kGround && c != kGround) add_jac(r - 1, c - 1, v);
    };
    at(p, cp, gm);
    at(p, cn, -gm);
    at(n, cp, -gm);
    at(n, cn, gm);
  }
  void add_node_jac(NodeId row, int col, AcValue v) {
    if (row != kGround) add_jac(row - 1, col, v);
  }
  void add_branch_jac(int row, NodeId col, AcValue v) {
    if (col != kGround) add_jac(row, col - 1, v);
  }
  // Excitation phasors are frequency-independent on every target.
  void add_current_into(NodeId n, std::complex<double> i) {
    if (n != kGround) rhs_[n - 1] += i;
  }
  void add_rhs(int row, std::complex<double> v) { rhs_[row] += v; }

 private:
  int image_slot(int row, int col) {
    if (replay_) {
      if (replay_cursor_ < replay_n_) {
        const num::StampSlot& s = replay_[replay_cursor_];
        if (s.row == row && s.col == col) {
          ++replay_cursor_;
          return s.idx;
        }
      }
      replay_ok_ = false;
      return pattern_->add_at(row, col);
    }
    const int idx = pattern_->add_at(row, col);
    if (slot_record_) slot_record_->push_back({row, col, idx});
    return idx;
  }

  double omega_ = 0.0;
  num::ComplexMatrix* dense_ = nullptr;
  num::ComplexSparseMatrix* sparse_ = nullptr;
  const num::RealSparseMatrix* pattern_ = nullptr;
  double* g_ = nullptr;
  std::vector<AcReactive>* reactive_ = nullptr;
  StampRecord* record_ = nullptr;
  num::ComplexVector& rhs_;
  std::vector<num::StampSlot>* slot_record_ = nullptr;
  const num::StampSlot* replay_ = nullptr;
  int replay_n_ = 0;
  int replay_cursor_ = 0;
  bool replay_ok_ = true;
};

// A physical noise generator: a current source of spectral density
// psd(f) [A^2/Hz] connected between nodes p and n, evaluated at the saved
// operating point.
struct NoiseSource {
  std::string label;
  NodeId p = kGround;
  NodeId n = kGround;
  std::function<double(double /*freq_hz*/)> psd;
};

class Device {
 public:
  Device(std::string name, std::vector<NodeId> nodes)
      : name_(std::move(name)), nodes_(std::move(nodes)) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const { return name_; }
  const std::vector<NodeId>& nodes() const { return nodes_; }
  virtual std::string_view type() const = 0;

  // Source location of the defining card when the device came from the
  // SPICE parser (1-based line number; 0 for programmatic netlists).
  // Lint diagnostics carry it so CLI users can jump to the bad card.
  int source_line() const { return source_line_; }
  void set_source_line(int line) { source_line_ = line; }

  // Number of extra branch-current unknowns this device introduces.
  virtual int branch_count() const { return 0; }
  // First unknown index of this device's branch block (set by the MNA
  // assembler before any stamping).
  int branch_base() const { return branch_base_; }
  void set_branch_base(int b) { branch_base_ = b; }

  // Registers every Jacobian position this device may ever stamp (any
  // analysis mode).  Called once per netlist to build the sparse
  // pattern; requires branch bases assigned.  The default registers the
  // dense envelope over the device's own unknowns -- tiny for real
  // devices (<= 4 nodes + branches) and always a superset of the actual
  // stamp set, because stamps only ever touch the device's own nodes
  // and branch block.
  virtual void declare_stamps(num::SparsityPattern& pat) const {
    std::vector<int> u;
    u.reserve(nodes_.size() + static_cast<std::size_t>(branch_count()));
    for (NodeId n : nodes_)
      if (n != kGround) u.push_back(n - 1);
    for (int b = 0; b < branch_count(); ++b) u.push_back(branch_base_ + b);
    for (int r : u)
      for (int c : u) pat.add(r, c);
  }

  // Interval transfer function for the value-range static analysis
  // (an::range_analysis): narrow the node/unknown intervals in `ctx`
  // with whatever this device's constitutive relation proves, declare
  // conductive-branch / zero-DC-current structure, and report dead-
  // device or branch-current facts on the verdict pass.  The default
  // declares nothing, which conservatively disqualifies the device's
  // nodes from the hull rule (sound for any device).  See
  // circuit/range.h for the contract.
  virtual void range_eval(RangeContext& /*ctx*/) const {}

  // Large-signal stamping (DC operating point and transient).
  virtual void stamp(StampContext& ctx) const = 0;

  // True when stamp() depends on the candidate solution (reads ctx.v()
  // or ctx.unknown()).  Devices whose stamps are fixed for one set of
  // AssembleParams are stamped once per Newton solve into a cached base
  // image instead of once per iteration.
  virtual bool is_nonlinear() const { return false; }

  // Called when a transient step is accepted, with the accepted solution;
  // dynamic devices update their integration history here.  `trapezoidal`
  // names the integrator the step was STAMPED with, so the history update
  // stays consistent with the companion model that produced `x` (a
  // backward-Euler step among trapezoidal ones -- the PSS first step --
  // must not apply the trapezoidal current update).
  virtual void accept_step(const num::RealVector& /*x*/, double /*dt*/,
                           bool /*trapezoidal*/) {}
  // Called before transient starts, with the DC operating point.
  virtual void begin_transient(const num::RealVector& /*x_op*/) {}

  // Stores the operating point for small-signal / noise analyses.
  virtual void save_op(const num::RealVector& /*x*/, double /*temp_k*/) {}

  // Small-signal stamping around the saved operating point.  Writes are
  // AcValue{g, c} = g + j*omega*c with g and c independent of omega;
  // the write sequence must not depend on omega either.
  virtual void stamp_ac(AcStampContext& ctx) const = 0;

  // Appends this device's noise sources (evaluated at the saved OP).
  virtual void append_noise_sources(std::vector<NoiseSource>& /*out*/,
                                    double /*temp_k*/) const {}

  // Re-evaluates temperature-dependent parameters.
  virtual void set_temperature(double /*temp_k*/) {}

  // Named numeric parameters for value-level lint checks (the
  // "finite_params" pass rejects NaN/Inf before they can poison a
  // factorization).  Devices expose their user-settable values; the
  // default (no parameters) opts legacy/behavioral devices out.
  virtual std::vector<std::pair<std::string, double>> param_values() const {
    return {};
  }

 protected:
  std::string name_;
  std::vector<NodeId> nodes_;
  int branch_base_ = -1;
  int source_line_ = 0;
};

}  // namespace msim::ckt
