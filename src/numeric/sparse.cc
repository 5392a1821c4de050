#include "numeric/sparse.h"

#include <atomic>
#include <cmath>
#include <limits>

namespace msim::num {

namespace {
std::atomic<long> g_sparse_searches{0};
}  // namespace

namespace detail {
void note_sparse_search() noexcept {
  g_sparse_searches.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail

long sparse_search_count() noexcept {
  return g_sparse_searches.load(std::memory_order_relaxed);
}

namespace {

double magnitude(double v) { return std::abs(v); }
double magnitude(const std::complex<double>& v) { return std::abs(v); }

// Pivots below this absolute value are treated as structural zeros
// (matches the dense Lu's floor so diagnoses agree across solvers).
constexpr double kPivotFloor = 1e-30;

// Threshold-pivoting tolerance: a candidate pivot must be at least this
// fraction of the largest magnitude in its column.  Smaller values give
// Markowitz more freedom (less fill) at the cost of growth; 0.01 is a
// conservative middle ground for the well-scaled MNA matrices here.
constexpr double kPivotThreshold = 0.01;

// Builds the elimination program of `s` (see SparseSymbolic) for A's CSR
// pattern.  `pos` maps a permuted column of the row being compiled to
// its factor position.  The analysis left the L/U pattern closed under
// elimination, so every update lands on an entry of its row.
void compile_elimination(SparseSymbolic& s, const std::vector<int>& rp,
                         const std::vector<int>& cs) {
  const int n = s.n;
  const int nl = static_cast<int>(s.l_cols.size());
  std::vector<int> pos(static_cast<std::size_t>(n), -1);
  s.a_pos.assign(cs.size(), -1);
  s.l_diag.assign(static_cast<std::size_t>(nl), -1);
  s.l_upd.assign(static_cast<std::size_t>(nl) + 1, 0);
  s.upd.clear();
  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    for (int k = s.l_ptr[ui]; k < s.l_ptr[ui + 1]; ++k)
      pos[static_cast<std::size_t>(s.l_cols[static_cast<std::size_t>(k)])] =
          k;
    for (int k = s.u_ptr[ui]; k < s.u_ptr[ui + 1]; ++k)
      pos[static_cast<std::size_t>(s.u_cols[static_cast<std::size_t>(k)])] =
          nl + k;
    const int pr = s.rowperm[ui];
    for (int k = rp[static_cast<std::size_t>(pr)];
         k < rp[static_cast<std::size_t>(pr) + 1]; ++k)
      s.a_pos[static_cast<std::size_t>(k)] =
          pos[static_cast<std::size_t>(s.qinv[static_cast<std::size_t>(
              cs[static_cast<std::size_t>(k)])])];
    for (int k = s.l_ptr[ui]; k < s.l_ptr[ui + 1]; ++k) {
      const auto j =
          static_cast<std::size_t>(s.l_cols[static_cast<std::size_t>(k)]);
      s.l_diag[static_cast<std::size_t>(k)] = nl + s.u_ptr[j];
      for (int kk = s.u_ptr[j] + 1; kk < s.u_ptr[j + 1]; ++kk) {
        const int target = pos[static_cast<std::size_t>(
            s.u_cols[static_cast<std::size_t>(kk)])];
        if (target < 0)
          throw std::logic_error("SparseLu: fill pattern not closed");
        s.upd.emplace_back(target, nl + kk);
      }
      s.l_upd[static_cast<std::size_t>(k) + 1] =
          static_cast<int>(s.upd.size());
    }
    for (int k = s.l_ptr[ui]; k < s.l_ptr[ui + 1]; ++k)
      pos[static_cast<std::size_t>(s.l_cols[static_cast<std::size_t>(k)])] =
          -1;
    for (int k = s.u_ptr[ui]; k < s.u_ptr[ui + 1]; ++k)
      pos[static_cast<std::size_t>(s.u_cols[static_cast<std::size_t>(k)])] =
          -1;
  }
}

}  // namespace

void ensemble_multiply(const SparseMatrix<double>& structure,
                       const EnsembleValues& ev, int lane,
                       const std::vector<double>& x, std::vector<double>& y) {
  const int n = structure.rows();
  const auto& rp = structure.row_ptr();
  const auto& cs = structure.cols();
  const double* vals = ev.data() + lane;
  const std::size_t stride = static_cast<std::size_t>(ev.lanes);
  y.assign(static_cast<std::size_t>(n), 0.0);
  for (int r = 0; r < n; ++r) {
    double acc = 0.0;
    for (int k = rp[static_cast<std::size_t>(r)];
         k < rp[static_cast<std::size_t>(r) + 1]; ++k)
      acc += vals[static_cast<std::size_t>(k) * stride] *
             x[static_cast<std::size_t>(cs[static_cast<std::size_t>(k)])];
    y[static_cast<std::size_t>(r)] = acc;
  }
}

template <typename T>
void SparseLu<T>::factor(const SparseMatrix<T>& a) {
  singular_ = false;
  singular_col_ = -1;

  const bool same_structure =
      sym_ && a.rows() == sym_->n && a.nnz() == sym_->pattern_nnz;
  if (same_structure && refactor(a)) return;

  if (!analyze(a)) {
    singular_ = true;
    min_pivot_ = 0.0;
    return;
  }
  if (!refactor(a)) {
    // The values the analysis itself chose pivots for cannot fail the
    // floor; reaching this means the matrix is numerically singular.
    singular_ = true;
    min_pivot_ = 0.0;
  }
}

// Markowitz pivot selection on the actual values: at each step pick the
// entry minimizing (r_count-1)*(c_count-1) among entries within
// kPivotThreshold of their column's max magnitude.  O(n * nnz) scans;
// circuit matrices are small enough that simplicity wins over indexed
// heaps.  The elimination keeps every structural entry (a value that
// cancels to zero stays in the row), so the structure it leaves behind
// IS the boolean closure for the chosen (P, Q): L and U patterns are
// recorded directly as the elimination runs.
template <typename T>
bool SparseLu<T>::analyze(const SparseMatrix<T>& a) {
  n_ = a.rows();
  sym_.reset();
  // Built locally, then frozen into an immutable shared SparseSymbolic
  // on success so adopters can share it without copying.
  std::vector<int> rowperm_(static_cast<std::size_t>(n_), -1);
  std::vector<int> colperm_(static_cast<std::size_t>(n_), -1);
  std::vector<int> qinv_;
  std::vector<int> l_ptr_, l_cols_;
  std::vector<int> u_ptr_, u_cols_;

  // Working rows: active entries as sorted (col, value) lists.
  std::vector<std::vector<std::pair<int, T>>> rows(
      static_cast<std::size_t>(n_));
  const auto& rp = a.row_ptr();
  const auto& cs = a.cols();
  const auto& vs = a.values();
  for (int r = 0; r < n_; ++r) {
    auto& row = rows[static_cast<std::size_t>(r)];
    row.reserve(static_cast<std::size_t>(rp[static_cast<std::size_t>(r) + 1] -
                                         rp[static_cast<std::size_t>(r)]));
    for (int k = rp[static_cast<std::size_t>(r)];
         k < rp[static_cast<std::size_t>(r) + 1]; ++k)
      row.emplace_back(cs[static_cast<std::size_t>(k)],
                       vs[static_cast<std::size_t>(k)]);
  }

  std::vector<char> row_active(static_cast<std::size_t>(n_), 1);
  std::vector<char> col_active(static_cast<std::size_t>(n_), 1);
  std::vector<double> col_max(static_cast<std::size_t>(n_));
  std::vector<int> col_cnt(static_cast<std::size_t>(n_));
  // One merge buffer reused by every row update (swapped with the row it
  // rebuilds, so capacity migrates instead of reallocating).
  std::vector<std::pair<int, T>> merged;
  // Structure log: U rows in original column ids (remapped through qinv_
  // at the end), and one (row, step) record per elimination update (the
  // L pattern, already in ascending step order).
  u_ptr_.assign(1, 0);
  u_cols_.clear();
  std::vector<std::pair<int, int>> lrec;

  for (int k = 0; k < n_; ++k) {
    // Pass 1: per-column max magnitude and count over active entries.
    std::fill(col_max.begin(), col_max.end(), 0.0);
    std::fill(col_cnt.begin(), col_cnt.end(), 0);
    for (int r = 0; r < n_; ++r) {
      if (!row_active[static_cast<std::size_t>(r)]) continue;
      for (const auto& [c, v] : rows[static_cast<std::size_t>(r)]) {
        if (!col_active[static_cast<std::size_t>(c)]) continue;
        const double m = magnitude(v);
        auto& cm = col_max[static_cast<std::size_t>(c)];
        if (m > cm) cm = m;
        ++col_cnt[static_cast<std::size_t>(c)];
      }
    }

    // Pass 2: Markowitz cost among threshold-eligible entries.
    long best_cost = std::numeric_limits<long>::max();
    double best_mag = 0.0;
    int best_r = -1, best_c = -1;
    for (int r = 0; r < n_; ++r) {
      if (!row_active[static_cast<std::size_t>(r)]) continue;
      int rcnt = 0;
      for (const auto& [c, v] : rows[static_cast<std::size_t>(r)])
        if (col_active[static_cast<std::size_t>(c)]) ++rcnt;
      for (const auto& [c, v] : rows[static_cast<std::size_t>(r)]) {
        if (!col_active[static_cast<std::size_t>(c)]) continue;
        const double m = magnitude(v);
        if (m < kPivotFloor ||
            m < kPivotThreshold * col_max[static_cast<std::size_t>(c)])
          continue;
        const long cost =
            static_cast<long>(rcnt - 1) *
            static_cast<long>(col_cnt[static_cast<std::size_t>(c)] - 1);
        if (cost < best_cost || (cost == best_cost && m > best_mag)) {
          best_cost = cost;
          best_mag = m;
          best_r = r;
          best_c = c;
        }
      }
    }

    if (best_r < 0) {
      // No usable pivot anywhere: report the lowest-index still-active
      // column (for a floating node this is exactly the empty column the
      // dense solver would have stalled on).
      for (int c = 0; c < n_; ++c)
        if (col_active[static_cast<std::size_t>(c)]) {
          singular_col_ = c;
          break;
        }
      return false;
    }

    rowperm_[static_cast<std::size_t>(k)] = best_r;
    colperm_[static_cast<std::size_t>(k)] = best_c;
    auto& prow = rows[static_cast<std::size_t>(best_r)];
    T pivot{};
    for (const auto& [c, v] : prow)
      if (c == best_c) pivot = v;

    // The pivot row's active entries become U row k (original column
    // ids for now; remapped once qinv_ is known).
    for (const auto& [c, v] : prow)
      if (col_active[static_cast<std::size_t>(c)]) u_cols_.push_back(c);
    u_ptr_.push_back(static_cast<int>(u_cols_.size()));

    // Eliminate: every other active row holding column best_c gets
    // row -= m * pivot_row over the active columns (creating fill).
    for (int r = 0; r < n_; ++r) {
      if (r == best_r || !row_active[static_cast<std::size_t>(r)]) continue;
      auto& row = rows[static_cast<std::size_t>(r)];
      auto it = std::lower_bound(
          row.begin(), row.end(), best_c,
          [](const std::pair<int, T>& e, int c) { return e.first < c; });
      if (it == row.end() || it->first != best_c) continue;
      const T m = it->second / pivot;
      lrec.emplace_back(r, k);
      // Sorted merge of the update; fill entries are inserted.
      merged.clear();
      merged.reserve(row.size() + prow.size());
      std::size_t i = 0, j = 0;
      while (i < row.size() || j < prow.size()) {
        // Skip inactive pivot-row columns (and the pivot column itself).
        if (j < prow.size() &&
            (!col_active[static_cast<std::size_t>(prow[j].first)] ||
             prow[j].first == best_c)) {
          ++j;
          continue;
        }
        if (j >= prow.size() ||
            (i < row.size() && row[i].first < prow[j].first)) {
          merged.push_back(row[i++]);
        } else if (i >= row.size() || row[i].first > prow[j].first) {
          merged.emplace_back(prow[j].first, -m * prow[j].second);
          ++j;
        } else {
          merged.emplace_back(row[i].first, row[i].second - m * prow[j].second);
          ++i;
          ++j;
        }
      }
      std::swap(row, merged);
    }
    row_active[static_cast<std::size_t>(best_r)] = 0;
    col_active[static_cast<std::size_t>(best_c)] = 0;
  }

  qinv_.assign(static_cast<std::size_t>(n_), -1);
  for (int k = 0; k < n_; ++k)
    qinv_[static_cast<std::size_t>(colperm_[static_cast<std::size_t>(k)])] = k;

  // U: remap original columns to permuted positions.  Every non-pivot
  // entry of U row i was active at step i, so it maps past i; ascending
  // sort therefore puts the diagonal first, as refactor expects.
  for (auto& c : u_cols_) c = qinv_[static_cast<std::size_t>(c)];
  for (int i = 0; i < n_; ++i)
    std::sort(u_cols_.begin() + u_ptr_[static_cast<std::size_t>(i)],
              u_cols_.begin() + u_ptr_[static_cast<std::size_t>(i) + 1]);

  // L: counting-sort the update log by the updated row's pivot step.
  // The log is step-ordered, so each row's entries land ascending.
  std::vector<int> pinv(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i)
    pinv[static_cast<std::size_t>(rowperm_[static_cast<std::size_t>(i)])] = i;
  l_ptr_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (const auto& [r, step] : lrec)
    ++l_ptr_[static_cast<std::size_t>(pinv[static_cast<std::size_t>(r)]) + 1];
  for (int i = 0; i < n_; ++i)
    l_ptr_[static_cast<std::size_t>(i) + 1] +=
        l_ptr_[static_cast<std::size_t>(i)];
  l_cols_.resize(lrec.size());
  std::vector<int> fill(l_ptr_.begin(), l_ptr_.end() - 1);
  for (const auto& [r, step] : lrec)
    l_cols_[static_cast<std::size_t>(
        fill[static_cast<std::size_t>(pinv[static_cast<std::size_t>(r)])]++)] =
        step;

  auto s = std::make_shared<SparseSymbolic>();
  s->n = n_;
  s->pattern_nnz = a.nnz();
  s->rowperm = std::move(rowperm_);
  s->colperm = std::move(colperm_);
  s->qinv = std::move(qinv_);
  s->l_ptr = std::move(l_ptr_);
  s->l_cols = std::move(l_cols_);
  s->u_ptr = std::move(u_ptr_);
  s->u_cols = std::move(u_cols_);
  compile_elimination(*s, a.row_ptr(), a.cols());
  sym_ = std::move(s);
  size_payload();
  ++serial_;
  return true;
}

template <typename T>
void SparseLu<T>::adopt_symbolic(std::shared_ptr<const SparseSymbolic> s) {
  sym_ = std::move(s);
  n_ = sym_->n;
  size_payload();
  ++serial_;
}

template <typename T>
void SparseLu<T>::size_payload() {
  lu_.assign(sym_->l_cols.size() + sym_->u_cols.size(), T{});
  work_.assign(static_cast<std::size_t>(n_), T{});
}

// Up-looking row factorization by the compiled program: place the A
// values, then for each permuted row eliminate with the already finished
// U rows in place.  Row i is touched only while it is eliminated, so
// placing every row up front is the same as scattering row by row.  The
// arithmetic, and its order per entry, is that of a dense-row scatter /
// eliminate / gather along the same structure.  No allocation, no
// pivot search.
template <typename T>
bool SparseLu<T>::refactor(const SparseMatrix<T>& a) {
  const SparseSymbolic& s = *sym_;
  const auto& vs = a.values();
  std::fill(lu_.begin(), lu_.end(), T{});
  for (std::size_t k = 0; k < vs.size(); ++k)
    lu_[static_cast<std::size_t>(s.a_pos[k])] = vs[k];
  min_pivot_ = n_ ? 1e300 : 0.0;
  max_pivot_ = 0.0;

  T* lu = lu_.data();
  const T* u = lu + s.l_cols.size();
  for (int i = 0; i < n_; ++i) {
    for (int k = s.l_ptr[static_cast<std::size_t>(i)];
         k < s.l_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const T m = lu[k] / lu[s.l_diag[static_cast<std::size_t>(k)]];
      lu[k] = m;
      if (m == T{}) continue;
      for (int q = s.l_upd[static_cast<std::size_t>(k)];
           q < s.l_upd[static_cast<std::size_t>(k) + 1]; ++q) {
        const auto [target, source] = s.upd[static_cast<std::size_t>(q)];
        lu[target] -= m * lu[source];
      }
    }

    const double piv = magnitude(u[s.u_ptr[static_cast<std::size_t>(i)]]);
    if (piv < kPivotFloor) {
      singular_col_ = s.colperm[static_cast<std::size_t>(i)];
      return false;
    }
    if (piv < min_pivot_) min_pivot_ = piv;
    if (piv > max_pivot_) max_pivot_ = piv;
  }
  return true;
}

template <typename T>
void SparseLu<T>::solve(const std::vector<T>& b, std::vector<T>& x) const {
  // P A Q = L U  =>  solve L U y = P b, then x = Q y.
  const std::size_t n = static_cast<std::size_t>(n_);
  const auto& rowperm_ = sym_->rowperm;
  const auto& colperm_ = sym_->colperm;
  const auto& l_ptr_ = sym_->l_ptr;
  const auto& l_cols_ = sym_->l_cols;
  const auto& u_ptr_ = sym_->u_ptr;
  const auto& u_cols_ = sym_->u_cols;
  const T* l_vals_ = lu_.data();
  const T* u_vals_ = l_vals_ + l_cols_.size();
  std::vector<T>& y = work_;
  for (std::size_t i = 0; i < n; ++i) y[i] = b[static_cast<std::size_t>(
      rowperm_[i])];
  // Forward substitution with unit-diagonal L.
  for (std::size_t i = 0; i < n; ++i) {
    T acc = y[i];
    for (int k = l_ptr_[i]; k < l_ptr_[i + 1]; ++k)
      acc -= l_vals_[static_cast<std::size_t>(k)] *
             y[static_cast<std::size_t>(l_cols_[static_cast<std::size_t>(k)])];
    y[i] = acc;
  }
  // Back substitution with U (diagonal first in each row).
  for (std::size_t ii = n; ii-- > 0;) {
    T acc = y[ii];
    const int u0 = u_ptr_[ii];
    for (int k = u0 + 1; k < u_ptr_[ii + 1]; ++k)
      acc -= u_vals_[static_cast<std::size_t>(k)] *
             y[static_cast<std::size_t>(u_cols_[static_cast<std::size_t>(k)])];
    y[ii] = acc / u_vals_[static_cast<std::size_t>(u0)];
  }
  x.resize(n);
  for (std::size_t j = 0; j < n; ++j)
    x[static_cast<std::size_t>(colperm_[j])] = y[j];
}

template <typename T>
void SparseLu<T>::solve_transpose(const std::vector<T>& b,
                                  std::vector<T>& x) const {
  // A = P^T L U Q^T  =>  A^T x = b  <=>  U^T L^T (P x) = Q^T b.
  const std::size_t n = static_cast<std::size_t>(n_);
  const auto& rowperm_ = sym_->rowperm;
  const auto& colperm_ = sym_->colperm;
  const auto& l_ptr_ = sym_->l_ptr;
  const auto& l_cols_ = sym_->l_cols;
  const auto& u_ptr_ = sym_->u_ptr;
  const auto& u_cols_ = sym_->u_cols;
  const T* l_vals_ = lu_.data();
  const T* u_vals_ = l_vals_ + l_cols_.size();
  std::vector<T>& v = work_;
  for (std::size_t j = 0; j < n; ++j) v[j] = b[static_cast<std::size_t>(
      colperm_[j])];
  // U^T is lower triangular: forward column sweep.
  for (std::size_t j = 0; j < n; ++j) {
    const int u0 = u_ptr_[j];
    v[j] /= u_vals_[static_cast<std::size_t>(u0)];
    const T vj = v[j];
    for (int k = u0 + 1; k < u_ptr_[j + 1]; ++k)
      v[static_cast<std::size_t>(u_cols_[static_cast<std::size_t>(k)])] -=
          u_vals_[static_cast<std::size_t>(k)] * vj;
  }
  // L^T is unit upper triangular: backward column sweep.
  for (std::size_t j = n; j-- > 0;) {
    const T vj = v[j];
    for (int k = l_ptr_[j]; k < l_ptr_[j + 1]; ++k)
      v[static_cast<std::size_t>(l_cols_[static_cast<std::size_t>(k)])] -=
          l_vals_[static_cast<std::size_t>(k)] * vj;
  }
  x.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    x[static_cast<std::size_t>(rowperm_[i])] = v[i];
}

template class SparseLu<double>;
template class SparseLu<std::complex<double>>;

}  // namespace msim::num
