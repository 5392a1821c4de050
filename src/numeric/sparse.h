// Sparse MNA matrices and a structure-caching sparse LU.
//
// Circuit Jacobians are extremely sparse (a handful of entries per row)
// and, crucially, their sparsity pattern is fixed for the lifetime of a
// netlist: every Newton iteration, transient step, AC and noise
// frequency point re-assembles the same nonzero positions with new
// values.  The classes here exploit that:
//
//   SparsityPattern  - coordinate list of (row, col) stamp positions,
//                      captured once per netlist from the devices.
//   SparseMatrix<T>  - CSR storage over a fixed pattern; re-assembly
//                      clears and rewrites only the nnz values instead
//                      of an O(n^2) dense fill.
//   SparseLu<T>      - LU with Markowitz threshold pivoting.  The first
//                      factor() chooses a fill-minimizing pivot order
//                      and computes the fill pattern symbolically; every
//                      later factor() of a same-pattern matrix replays
//                      that structure numerically (no pivot search, no
//                      allocation).  A pivot that collapses below the
//                      floor triggers one automatic re-analysis.
#pragma once

#include <algorithm>
#include <cassert>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "numeric/matrix.h"

namespace msim::num {

namespace detail {
// Process-wide census of CSR position searches (lower_bound walks in
// SparseMatrix::add / at / find_index).  The slot-cached assembly path
// is contractually search-free after warm-up; tests pin that by
// diffing this counter around a re-assembly (same idiom as
// an::factor_call_count).
void note_sparse_search() noexcept;
}  // namespace detail

// Total CSR binary searches performed by this process.
long sparse_search_count() noexcept;

// Coordinate-list collector for the stamp positions of one netlist.
// Duplicates are fine; SparseMatrix dedupes when it builds the CSR.
class SparsityPattern {
 public:
  explicit SparsityPattern(int n = 0) : n_(n) {}

  int dim() const { return n_; }
  void add(int row, int col) {
    assert(row >= 0 && row < n_ && col >= 0 && col < n_);
    entries_.emplace_back(row, col);
  }
  const std::vector<std::pair<int, int>>& entries() const {
    return entries_;
  }

 private:
  int n_ = 0;
  std::vector<std::pair<int, int>> entries_;
};

template <typename T>
class SparseMatrix {
 public:
  SparseMatrix() = default;

  explicit SparseMatrix(const SparsityPattern& p) : n_(p.dim()) {
    // Counting sort by row, then sort + dedupe each (short) row: cheaper
    // than one global sort of the duplicate-heavy coordinate list.
    const auto& e = p.entries();
    row_ptr_.assign(static_cast<std::size_t>(n_) + 1, 0);
    for (const auto& [r, c] : e) ++row_ptr_[static_cast<std::size_t>(r) + 1];
    for (int i = 0; i < n_; ++i)
      row_ptr_[static_cast<std::size_t>(i) + 1] +=
          row_ptr_[static_cast<std::size_t>(i)];
    cols_.resize(e.size());
    std::vector<int> fill(row_ptr_.begin(), row_ptr_.end() - 1);
    for (const auto& [r, c] : e)
      cols_[static_cast<std::size_t>(fill[static_cast<std::size_t>(r)]++)] = c;
    std::size_t w = 0;
    int prev_end = 0;
    for (int i = 0; i < n_; ++i) {
      auto lo = cols_.begin() + prev_end;
      auto hi = cols_.begin() + row_ptr_[static_cast<std::size_t>(i) + 1];
      std::sort(lo, hi);
      prev_end = row_ptr_[static_cast<std::size_t>(i) + 1];
      row_ptr_[static_cast<std::size_t>(i)] = static_cast<int>(w);
      for (auto it = lo; it != hi; ++it)
        if (it == lo || *it != *(it - 1)) cols_[w++] = *it;
    }
    row_ptr_[static_cast<std::size_t>(n_)] = static_cast<int>(w);
    cols_.resize(w);
    vals_.assign(cols_.size(), T{});
  }

  // Same structure as `o`, zero values (e.g. the complex AC matrix from
  // the real pattern).
  template <typename U>
  explicit SparseMatrix(const SparseMatrix<U>& o)
      : n_(o.n_), row_ptr_(o.row_ptr_), cols_(o.cols_) {
    vals_.assign(cols_.size(), T{});
  }

  int rows() const { return n_; }
  int nnz() const { return static_cast<int>(cols_.size()); }
  bool empty() const { return n_ == 0; }

  void clear_values() { std::fill(vals_.begin(), vals_.end(), T{}); }

  // Accumulates into an existing pattern position.  Stamping a position
  // that was never declared is a programming error in the device's
  // declare_stamps() and is reported loudly.
  void add(int r, int c, T v) {
    vals_[static_cast<std::size_t>(add_at(r, c))] += v;
  }

  // Searched position resolve: the flat index into values() of (r, c).
  // The slot recorder uses this to resolve a device's stamp sequence
  // into direct CSR indices once; replays then write values()[idx] with
  // no search at all.
  int add_at(int r, int c) const {
    detail::note_sparse_search();
    const int* base = cols_.data();
    const int* lo = base + row_ptr_[static_cast<std::size_t>(r)];
    const int* hi = base + row_ptr_[static_cast<std::size_t>(r) + 1];
    const int* it = std::lower_bound(lo, hi, c);
    if (it == hi || *it != c)
      throw std::logic_error(
          "SparseMatrix::add: position outside declared pattern");
    return static_cast<int>(it - base);
  }

  // Flat values() index of (r, c), or -1 when the position is not in
  // the pattern (used to pre-resolve the gshunt diagonal slots).
  int find_index(int r, int c) const {
    detail::note_sparse_search();
    const int* base = cols_.data();
    const int* lo = base + row_ptr_[static_cast<std::size_t>(r)];
    const int* hi = base + row_ptr_[static_cast<std::size_t>(r) + 1];
    const int* it = std::lower_bound(lo, hi, c);
    return (it == hi || *it != c) ? -1 : static_cast<int>(it - base);
  }

  // y = A * x (sized to rows()).  Used by the iterative-refinement
  // residual check (r = rhs - A x).
  void multiply(const std::vector<T>& x, std::vector<T>& y) const {
    y.assign(static_cast<std::size_t>(n_), T{});
    for (int r = 0; r < n_; ++r) {
      T acc{};
      for (int k = row_ptr_[static_cast<std::size_t>(r)];
           k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k)
        acc += vals_[static_cast<std::size_t>(k)] *
               x[static_cast<std::size_t>(cols_[static_cast<std::size_t>(k)])];
      y[static_cast<std::size_t>(r)] = acc;
    }
  }

  // Value at (r, c); zero when the position is not in the pattern.
  T at(int r, int c) const {
    detail::note_sparse_search();
    const int* base = cols_.data();
    const int* lo = base + row_ptr_[static_cast<std::size_t>(r)];
    const int* hi = base + row_ptr_[static_cast<std::size_t>(r) + 1];
    const int* it = std::lower_bound(lo, hi, c);
    return (it == hi || *it != c) ? T{}
                                  : vals_[static_cast<std::size_t>(it - base)];
  }

  Matrix<T> to_dense() const {
    Matrix<T> m(static_cast<std::size_t>(n_), static_cast<std::size_t>(n_));
    for (int r = 0; r < n_; ++r)
      for (int k = row_ptr_[static_cast<std::size_t>(r)];
           k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k)
        m(static_cast<std::size_t>(r),
          static_cast<std::size_t>(cols_[static_cast<std::size_t>(k)])) =
            vals_[static_cast<std::size_t>(k)];
    return m;
  }

  const std::vector<int>& row_ptr() const { return row_ptr_; }
  const std::vector<int>& cols() const { return cols_; }
  const std::vector<T>& values() const { return vals_; }
  std::vector<T>& values() { return vals_; }

 private:
  int n_ = 0;
  std::vector<int> row_ptr_;  // size n+1
  std::vector<int> cols_;     // sorted within each row
  std::vector<T> vals_;

  template <typename U>
  friend class SparseMatrix;
};

// Lane-blocked CSR values for an ensemble of same-pattern matrices:
// entry (idx, lane) lives at v[idx * lanes + lane], so the `lanes`
// values of one CSR position are contiguous.  One stamp-slot replay
// with a strided StampContext target writes all lanes of a slot as a
// unit-stride run, and per-device lane loops auto-vectorize.  The
// numeric LU still wants one lane's values flat, so gather_lane()
// de-interleaves into a scratch SparseMatrix before factoring.
struct EnsembleValues {
  std::vector<double> v;
  int nnz = 0;
  int lanes = 0;

  void init(int nnz_, int lanes_) {
    nnz = nnz_;
    lanes = lanes_;
    v.assign(static_cast<std::size_t>(nnz) * static_cast<std::size_t>(lanes),
             0.0);
  }
  double* data() { return v.data(); }
  const double* data() const { return v.data(); }
  double& at(int idx, int lane) {
    return v[static_cast<std::size_t>(idx) * static_cast<std::size_t>(lanes) +
             static_cast<std::size_t>(lane)];
  }
  double at(int idx, int lane) const {
    return v[static_cast<std::size_t>(idx) * static_cast<std::size_t>(lanes) +
             static_cast<std::size_t>(lane)];
  }
  void clear_lane(int lane) {
    double* p = v.data() + lane;
    for (int i = 0; i < nnz; ++i) p[static_cast<std::size_t>(i) *
                                    static_cast<std::size_t>(lanes)] = 0.0;
  }
  // Copies lane `from` of `src` into lane `to` of *this (same nnz).
  void copy_lane_from(const EnsembleValues& src, int from, int to) {
    const double* s = src.v.data() + from;
    double* d = v.data() + to;
    for (int i = 0; i < nnz; ++i)
      d[static_cast<std::size_t>(i) * static_cast<std::size_t>(lanes)] =
          s[static_cast<std::size_t>(i) * static_cast<std::size_t>(src.lanes)];
  }
  // De-interleaves one lane into a flat values array (size nnz).
  void gather_lane(int lane, std::vector<double>& out) const {
    out.resize(static_cast<std::size_t>(nnz));
    const double* s = v.data() + lane;
    for (int i = 0; i < nnz; ++i)
      out[static_cast<std::size_t>(i)] =
          s[static_cast<std::size_t>(i) * static_cast<std::size_t>(lanes)];
  }
};

// y = A_lane * x where A_lane shares `structure`'s CSR skeleton with its
// values taken from lane `lane` of `ev`.  The ensemble's iterative-
// refinement residual (r = rhs - A x) uses this to avoid gathering the
// lane just for a multiply.
void ensemble_multiply(const SparseMatrix<double>& structure,
                       const EnsembleValues& ev, int lane,
                       const std::vector<double>& x, std::vector<double>& y);

// The value-type-independent half of a SparseLu: pivot order and fill
// structure.  Exported once and adopted by other factorizations of
// same-pattern matrices (the complex AC system adopts the real Newton
// system's analysis, MC workers adopt a shared one) so the Markowitz
// analysis runs once per structure instead of once per SparseLu.
//
// It also carries the numeric refactorization compiled against that
// structure.  The factor values live in one array, the L entries (in
// l_cols order) first and the U entries (in u_cols order) after them;
// refactor places every A value at its position there and eliminates in
// place.
struct SparseSymbolic {
  int n = 0;
  int pattern_nnz = -1;
  std::vector<int> rowperm, colperm, qinv;
  std::vector<int> l_ptr, l_cols;
  std::vector<int> u_ptr, u_cols;
  // Elimination program.  a_pos[k]: factor position of the A value at
  // CSR index k.  L entry k (multiplier of row i by U row j) divides by
  // the U diagonal at l_diag[k], then runs the updates
  // upd[l_upd[k] .. l_upd[k+1]): lu[target] -= m * lu[source], in the
  // order of U row j.
  std::vector<int> a_pos;
  std::vector<int> l_diag, l_upd;
  std::vector<std::pair<int, int>> upd;  // (target, source)
};

// One resolved stamp write: the (row, col) the device asked for and the
// flat values() index it lands on.  row/col are kept so a replay can
// validate each write against what the device emits *this* time — a
// device whose write sequence changed (gmin toggling, mode change)
// falls back to the searched path and triggers a re-record, so a stale
// table degrades to one slow assembly, never to a wrong matrix.
struct StampSlot {
  int row = -1;
  int col = -1;
  int idx = -1;
};

// The resolved write sequence of one assembly pass (all devices the
// pass stamps, in stamp order) plus per-device [begin, end) windows
// into it.
struct StampSlotPass {
  std::vector<StampSlot> slots;
  std::vector<std::pair<int, int>> windows;
  bool recorded = false;
};

// Per-netlist slot tables, cached alongside the symbolic LU.  The real
// Newton system stamps linear and nonlinear devices in separate passes
// whose write sequences differ between DC OP and transient (dynamic
// devices early-return at DC, sources stamp different values), so each
// (pass, mode) pair gets its own table.  `diag` holds the node-diagonal
// values() indices for the gshunt regularization loop.  The tables are
// valid only for matrices sharing the identified CSR skeleton
// (pointer + nnz): the complex AC/noise matrices are built *from* that
// skeleton (same row_ptr/cols), so real indices apply there verbatim.
struct StampSlotTables {
  const void* skeleton = nullptr;  // identity of the CSR the idx refer to
  int nnz = 0;
  StampSlotPass base_dcop, base_tran;      // linear devices
  StampSlotPass newton_dcop, newton_tran;  // nonlinear devices
  // Small-signal pass (every device's stamp_ac writes, one window per
  // device).  Recorded by the first AC/noise sweep image (an::AcImage,
  // built on the serial driver path) and published here so later
  // sweeps -- and, through the serve-layer cache registry, later jobs
  // over the same topology -- build their image search-free.
  StampSlotPass ac;
  std::vector<int> diag;                   // node rows only
};

// Per-netlist cache of the sparse engine's structural work (owned by
// ckt::Netlist, populated by the analysis layer): the CSR skeleton of
// the MNA pattern, the symbolic factorization, and the resolved stamp
// slots.  Real Newton, complex AC and noise systems over the same
// netlist all share one pattern build, one analysis and one slot
// resolve.  Writes happen only on the serial large-signal path;
// parallel frequency workers are read-only.
struct SolverCache {
  int unknowns = -1;        // unknown count the entries were built for
  std::size_t devices = 0;  // device count ditto (staleness guard)
  // Netlist::structure_revision() the entries were built under; a
  // topology edit bumps the revision and invalidates everything here.
  std::uint64_t structure_rev = 0;
  std::shared_ptr<const SparseMatrix<double>> skeleton;
  std::shared_ptr<const SparseSymbolic> symbolic;
  std::shared_ptr<const StampSlotTables> slots;
};

// Sparse LU with cached symbolic analysis.
//
// factor() on a matrix whose (n, nnz) matches the cached analysis runs
// the fast numeric refactorization: identical pivot order, identical
// fill pattern, no allocation.  The first call (or a pivot-floor
// violation, or a structure change) runs the full Markowitz analysis.
//
// Diagnostics mirror num::Lu: singular() / singular_col() name the
// unknown whose pivot search failed, min_pivot() is the smallest pivot
// magnitude of the last successful factorization.  The pivot extremes
// are tracked for the real factorization only (the Newton system's
// conditioning gate reads them); the complex refactor checks its
// pivots against the floor and nothing more.
template <typename T>
class SparseLu {
 public:
  SparseLu() = default;

  void factor(const SparseMatrix<T>& a);

  bool singular() const { return singular_; }
  int singular_col() const { return singular_col_; }
  double min_pivot() const requires std::is_same_v<T, double> {
    return min_pivot_;
  }
  // Numerical-health probe over the last successful factorization: the
  // diagonal ratio max|U_ii| / min|U_ii| is a free lower bound on the
  // condition number (the true cond(A) can only be larger).  It costs
  // nothing beyond two running extremes -- cheap enough to gate the
  // residual check in RealSystem::solve on every solve.
  double condition_estimate() const requires std::is_same_v<T, double> {
    return min_pivot_ > 0.0 ? max_pivot_ / min_pivot_ : 0.0;
  }
  std::size_t size() const { return static_cast<std::size_t>(n_); }
  // True once a pivot order + fill pattern is cached.
  bool has_symbolic() const { return sym_ != nullptr; }
  // Drops the cached analysis (next factor() re-pivots from scratch).
  void reset() { sym_.reset(); }
  // Fill-in count of the cached factors (L strictly-lower + U).
  int factor_nnz() const {
    return sym_ ? static_cast<int>(sym_->l_cols.size() + sym_->u_cols.size())
                : 0;
  }

  // Shares the current analysis (no copy); requires has_symbolic().
  std::shared_ptr<const SparseSymbolic> export_symbolic() const {
    return sym_;
  }
  // Installs a previously exported analysis; the next factor() of a
  // matching-structure matrix refactors directly.  The pivot-floor check
  // still guards the replay, so an analysis made for different values
  // degrades to one automatic re-analysis, never to a wrong result.
  // The shared_ptr overload shares the structure; the const& overload
  // (kept for callers holding a bare struct) copies it once.
  void adopt_symbolic(std::shared_ptr<const SparseSymbolic> s);
  void adopt_symbolic(const SparseSymbolic& s) {
    adopt_symbolic(std::make_shared<const SparseSymbolic>(s));
  }
  // Bumped by every fresh analyze()/adopt_symbolic(); lets an owner spot
  // a re-analysis and re-export.
  int symbolic_serial() const { return serial_; }

  // Solves A x = b.  Requires !singular().  `x` must not alias `b`.
  void solve(const std::vector<T>& b, std::vector<T>& x) const;
  std::vector<T> solve(const std::vector<T>& b) const {
    std::vector<T> x;
    solve(b, x);
    return x;
  }

  // Solves A^T x = b (adjoint noise analysis).  `x` may alias `b`.
  void solve_transpose(const std::vector<T>& b, std::vector<T>& x) const;
  std::vector<T> solve_transpose(const std::vector<T>& b) const {
    std::vector<T> x;
    solve_transpose(b, x);
    return x;
  }

 private:
  // Full analysis: Markowitz threshold pivoting on the values of `a`,
  // then a boolean elimination with the chosen order to get the fill
  // pattern, then a numeric refactor.  Returns false when singular.
  bool analyze(const SparseMatrix<T>& a);
  // Numeric replay of the symbolic's elimination program.  Returns
  // false when a pivot falls below the floor (caller re-analyzes).
  bool refactor(const SparseMatrix<T>& a);
  // Sizes the numeric payload for the current symbolic.
  void size_payload();

  int n_ = 0;
  int serial_ = 0;
  bool singular_ = false;
  int singular_col_ = -1;
  double min_pivot_ = 0.0;
  double max_pivot_ = 0.0;

  // Immutable shared structure: pivot order (rowperm/colperm/qinv) plus
  // L (strictly lower, unit diagonal) and U (upper, diagonal first in
  // each row) fill patterns in permuted coordinates, row-compressed.
  // Many SparseLu instances over the same pattern (MC samples, AC grid
  // chunks, the complex system next to the real one) point at ONE
  // SparseSymbolic; only the numeric payload below is per-instance.
  std::shared_ptr<const SparseSymbolic> sym_;
  // Factor values: L (unit diagonal implied) then U, as laid out by the
  // symbolic's elimination program.
  std::vector<T> lu_;
  // Dense work vector for the solves.  Solves are logically const but
  // reuse this buffer, so a single SparseLu must not be shared across
  // threads (each parallel worker owns its own).
  mutable std::vector<T> work_;
};

using RealSparseMatrix = SparseMatrix<double>;
using ComplexSparseMatrix = SparseMatrix<std::complex<double>>;
using RealSparseLu = SparseLu<double>;
using ComplexSparseLu = SparseLu<std::complex<double>>;

}  // namespace msim::num
