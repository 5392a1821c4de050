#include "numeric/sparse.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <type_traits>

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

// a * b.  The complex product is the textbook one that libgcc's
// __muldc3 computes for finite operands, bit for bit, written out so
// the LU kernels make no library call per update.  (__muldc3 differs
// only in recovering infinities from inf/NaN operands; a factor that
// meets those is non-finite either way.)
double mul(double a, double b) { return a * b; }
std::complex<double> mul(const std::complex<double>& a,
                         const std::complex<double>& b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

// Variable-length lists packed in one pool: list i holds
// pool[beg[i], beg[i] + len[i]) with room up to cap[i].
struct Spans {
  std::vector<int> beg, len, cap;
  // Lays out empty lists with the given room, back to back, and sizes
  // the pool with as much again spare for lists that outgrow theirs.
  template <typename E>
  void init(const std::vector<int>& room, std::vector<E>& pool) {
    beg.resize(room.size());
    len.assign(room.size(), 0);
    cap = room;
    std::size_t b = 0;
    for (std::size_t i = 0; i < room.size(); ++i) {
      beg[i] = static_cast<int>(b);
      b += static_cast<std::size_t>(room[i]);
    }
    pool.reserve(2 * b);
    pool.resize(b);
  }
  // Moves list i to fresh room for `room` items at the pool's end.
  template <typename E>
  void reserve(int i, int room, std::vector<E>& pool) {
    const auto ui = static_cast<std::size_t>(i);
    const std::size_t b = pool.size();
    pool.resize(b + static_cast<std::size_t>(room));
    std::copy_n(pool.begin() + beg[ui], len[ui], pool.begin() + b);
    beg[ui] = static_cast<int>(b);
    cap[ui] = room;
  }
  template <typename E>
  void push(int i, E v, std::vector<E>& pool) {
    const auto ui = static_cast<std::size_t>(i);
    if (len[ui] == cap[ui]) reserve(i, 2 * cap[ui] + 2, pool);
    pool[static_cast<std::size_t>(beg[ui] + len[ui]++)] = v;
  }
};

// Items 0..n-1 filed under an integer key in [0, n], one doubly linked
// list per key.
struct Buckets {
  std::vector<int> head, next, prev, key;
  explicit Buckets(int n)
      : head(static_cast<std::size_t>(n) + 1, -1),
        next(static_cast<std::size_t>(n), -1),
        prev(static_cast<std::size_t>(n), -1),
        key(static_cast<std::size_t>(n), -1) {}
  void insert(int i, int k) {
    const auto ui = static_cast<std::size_t>(i);
    const int h = head[static_cast<std::size_t>(k)];
    key[ui] = k;
    prev[ui] = -1;
    next[ui] = h;
    if (h >= 0) prev[static_cast<std::size_t>(h)] = i;
    head[static_cast<std::size_t>(k)] = i;
  }
  void remove(int i) {
    const auto ui = static_cast<std::size_t>(i);
    if (prev[ui] >= 0)
      next[static_cast<std::size_t>(prev[ui])] = next[ui];
    else
      head[static_cast<std::size_t>(key[ui])] = next[ui];
    if (next[ui] >= 0) prev[static_cast<std::size_t>(next[ui])] = prev[ui];
  }
  void move(int i, int k) {
    if (key[static_cast<std::size_t>(i)] == k) return;
    remove(i);
    insert(i, k);
  }
};

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

// Markowitz pivot selection on the actual values.  Each step picks the
// lexicographic minimum of (cost, -|a|, row, column) over the active
// entries that pass the floor and lie within kPivotThreshold of their
// column's largest magnitude, where cost = (row count - 1) * (column
// count - 1): the entry a row-major scan keeping the first of equal
// (cost, |a|) would pick, looking at few entries to find it (`search`
// below).
//
// Each working row keeps its entries in slots that never move within
// the row: an entry whose column is pivoted stays as a dead slot, and
// fill is appended.  Column lists hold (row, slot) pairs, so every
// entry is reached from its column without a search.  Column counts
// follow the eliminations incrementally, and only the pivot row's
// columns -- the only ones whose entries change -- get their maxima
// recomputed, when the search next reads them.  The elimination keeps
// every structural entry (a value that cancels to zero stays in the
// row), so the structure it leaves behind IS the boolean closure for the
// chosen (P, Q): L and U patterns are recorded directly as it runs.
template <typename T>
bool SparseLu<T>::analyze(const SparseMatrix<T>& a) {
  n_ = a.rows();
  sym_.reset();
  const auto un = static_cast<std::size_t>(n_);
  // Built locally, then frozen into an immutable shared SparseSymbolic
  // on success so adopters can share it without copying.
  std::vector<int> rowperm_(un, -1);
  std::vector<int> colperm_(un, -1);
  std::vector<int> qinv_;
  std::vector<int> l_ptr_, l_cols_;
  std::vector<int> u_ptr_, u_cols_;

  using Entry = std::pair<int, T>;      // (column, value)
  using Slot = std::pair<int, int>;     // (row, slot in that row)
  const auto& rp = a.row_ptr();
  const auto& cs = a.cols();
  const auto& vs = a.values();
  // Row slots and column lists live in two pools, each list at
  // [beg, beg + len) with room up to cap; a list that outgrows its room
  // moves to the end of its pool (slot numbers are relative to the row,
  // so they survive the move).  col_rows[c] lists every row that gained
  // an entry in column c; rows pivoted since are skipped (and pruned
  // when the column's maximum is recomputed).
  std::vector<Entry> row_pool;
  std::vector<Slot> col_pool;
  Spans rows, col_rows;
  std::vector<int> row_cnt(un, 0);       // live entries per row
  std::vector<int> col_cnt(un, 0);       // active rows per column
  std::vector<double> col_max(un, 0.0);  // their largest magnitude
  std::vector<char> col_stale(un, 0);    // col_max needs a recompute
  for (const int c : cs) ++col_cnt[static_cast<std::size_t>(c)];
  {
    std::vector<int> room(un);
    for (std::size_t c = 0; c < un; ++c) room[c] = 2 * col_cnt[c] + 2;
    col_rows.init(room, col_pool);
    for (std::size_t r = 0; r < un; ++r)
      room[r] = 2 * (rp[r + 1] - rp[r]) + 2;
    rows.init(room, row_pool);
  }
  for (int r = 0; r < n_; ++r) {
    const int b = rp[static_cast<std::size_t>(r)];
    const int e = rp[static_cast<std::size_t>(r) + 1];
    Entry* row = row_pool.data() + rows.beg[static_cast<std::size_t>(r)];
    for (int k = b; k < e; ++k) {
      const int c = cs[static_cast<std::size_t>(k)];
      const T v = vs[static_cast<std::size_t>(k)];
      row[k - b] = Entry(c, v);
      col_rows.push(c, Slot(r, k - b), col_pool);
      const double m = magnitude(v);
      if (m > col_max[static_cast<std::size_t>(c)])
        col_max[static_cast<std::size_t>(c)] = m;
    }
    rows.len[static_cast<std::size_t>(r)] = e - b;
    row_cnt[static_cast<std::size_t>(r)] = e - b;
  }
  const auto row_begin = [&](int r) {
    return row_pool.data() + rows.beg[static_cast<std::size_t>(r)];
  };
  const auto col_begin = [&](int c) {
    return col_pool.data() + col_rows.beg[static_cast<std::size_t>(c)];
  };

  std::vector<char> row_active(un, 1);
  std::vector<char> col_active(un, 1);
  // Active rows bucketed by live entry count, active columns by row
  // count.
  Buckets row_by_cnt(n_), col_by_cnt(n_);
  for (int r = 0; r < n_; ++r)
    row_by_cnt.insert(r, row_cnt[static_cast<std::size_t>(r)]);
  for (int c = 0; c < n_; ++c)
    col_by_cnt.insert(c, col_cnt[static_cast<std::size_t>(c)]);

  // Column c's largest active magnitude, recomputed (dropping pivoted
  // rows from its list on the way) if an elimination changed it.
  const auto column_max = [&](int c) {
    const auto uc = static_cast<std::size_t>(c);
    if (col_stale[uc]) {
      col_stale[uc] = 0;
      Slot* list = col_begin(c);
      double cmax = 0.0;
      int w = 0;
      for (int i = 0; i < col_rows.len[uc]; ++i) {
        const auto [r, slot] = list[i];
        if (!row_active[static_cast<std::size_t>(r)]) continue;
        list[w++] = list[i];
        const double m = magnitude(row_begin(r)[slot].second);
        if (m > cmax) cmax = m;
      }
      col_rows.len[uc] = w;
      col_max[uc] = cmax;
    }
    return col_max[uc];
  };

  // Usable entries at the lowest cost seen so far.
  struct Candidate {
    int r, c, slot;
    double mag;
  };
  // The search: cost-0 entries (one-entry rows, one-row columns) first.
  // Every other entry has row and column costs a, b >= 1 and is looked
  // at once, in round min(a, b): from its row when a <= b, else from its
  // column; after round q the rest cost at least (q + 1)^2.  The cost
  // test runs before the magnitude test, and with `prune` an entry that
  // ties the best cost below the best magnitude is dropped before its
  // column maximum is read: it cannot win.  A NaN magnitude makes the
  // winner depend on the scan order, so a pruned search that meets one
  // returns true and the caller searches again without pruning.
  std::vector<Candidate> cand;
  long best_cost = 0;
  double best_mag = 0.0;
  bool nan_mag = false;
  const auto consider = [&](int r, int c, int slot, long cost, bool prune) {
    const double m = magnitude(row_begin(r)[slot].second);
    if (prune && !cand.empty() && cost == best_cost && m < best_mag) return;
    if (m < kPivotFloor || m < kPivotThreshold * column_max(c)) return;
    if (std::isnan(m)) nan_mag = true;
    if (cand.empty() || cost < best_cost) {
      best_cost = cost;
      best_mag = m;
      cand.clear();
    } else if (m > best_mag) {
      best_mag = m;
    }
    cand.push_back({r, c, slot, m});
  };
  const auto search = [&](bool prune) {
    cand.clear();
    nan_mag = false;
    for (int r = row_by_cnt.head[1]; r >= 0; r = row_by_cnt.next[r]) {
      const Entry* row = row_begin(r);
      int i = 0;
      while (!col_active[static_cast<std::size_t>(row[i].first)]) ++i;
      consider(r, row[i].first, i, 0, prune);
    }
    for (int c = col_by_cnt.head[1]; c >= 0; c = col_by_cnt.next[c]) {
      const Slot* list = col_begin(c);
      int i = 0;
      while (!row_active[static_cast<std::size_t>(list[i].first)]) ++i;
      const auto [r, slot] = list[i];
      if (row_cnt[static_cast<std::size_t>(r)] > 1)
        consider(r, c, slot, 0, prune);
    }
    for (long q = 1; q < n_ && (cand.empty() || q * q <= best_cost); ++q) {
      const int count = static_cast<int>(q) + 1;
      for (int r = row_by_cnt.head[count]; r >= 0; r = row_by_cnt.next[r]) {
        const Entry* row = row_begin(r);
        for (int i = 0; i < rows.len[static_cast<std::size_t>(r)]; ++i) {
          const auto uc = static_cast<std::size_t>(row[i].first);
          if (!col_active[uc]) continue;
          const long ccost = col_cnt[uc] - 1;
          if (ccost < q) continue;
          const long cost = q * ccost;
          if (cand.empty() || cost <= best_cost)
            consider(r, row[i].first, i, cost, prune);
        }
      }
      for (int c = col_by_cnt.head[count]; c >= 0; c = col_by_cnt.next[c]) {
        // Brings the column's maximum up to date first: that prunes the
        // list this loop walks.
        (void)column_max(c);
        const Slot* list = col_begin(c);
        for (int i = 0; i < col_rows.len[static_cast<std::size_t>(c)]; ++i) {
          const auto [r, slot] = list[i];
          const long rcost = row_cnt[static_cast<std::size_t>(r)] - 1;
          if (rcost <= q) continue;
          const long cost = rcost * q;
          if (cand.empty() || cost <= best_cost)
            consider(r, c, slot, cost, prune);
        }
      }
    }
    return prune && nan_mag;
  };

  // The pivot row without its pivot, each entry's index there by
  // column (-1: none), and the last row that updated each entry.
  std::vector<Entry> prow;
  std::vector<int> ppos(un, -1), hit;
  // Structure log: U rows in original column ids (remapped through qinv_
  // at the end), and one (row, step) record per elimination update (the
  // L pattern, already in ascending step order).
  u_ptr_.assign(1, 0);
  u_cols_.reserve(2 * vs.size());
  std::vector<std::pair<int, int>> lrec;
  lrec.reserve(vs.size());

  for (int k = 0; k < n_; ++k) {
    if (search(/*prune=*/true)) search(/*prune=*/false);

    if (cand.empty()) {
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
    // The scan's choice among the best-cost entries: the first in
    // row-major order, replaced by any later one of strictly larger
    // magnitude.  Without a NaN magnitude that is the largest magnitude,
    // then the lowest (row, column); with one, the order itself decides.
    Candidate best = cand.front();
    if (nan_mag) {
      std::sort(cand.begin(), cand.end(),
                [](const Candidate& x, const Candidate& y) {
                  return x.r != y.r ? x.r < y.r : x.c < y.c;
                });
      best = cand.front();
      for (const Candidate& x : cand)
        if (x.mag > best.mag) best = x;
    } else {
      for (const Candidate& x : cand)
        if (x.mag > best.mag ||
            (x.mag == best.mag &&
             (x.r != best.r ? x.r < best.r : x.c < best.c)))
          best = x;
    }
    const int best_r = best.r;
    const int best_c = best.c;
    const T pivot = row_begin(best_r)[best.slot].second;

    rowperm_[static_cast<std::size_t>(k)] = best_r;
    colperm_[static_cast<std::size_t>(k)] = best_c;
    row_active[static_cast<std::size_t>(best_r)] = 0;
    row_by_cnt.remove(best_r);

    // The pivot row's live entries become U row k (original column ids
    // for now; remapped once qinv_ is known) and leave their columns.
    // The others are copied out (a row that outgrows its room may move
    // the pool under them) with their indices there kept by column.
    prow.clear();
    {
      const Entry* pb = row_begin(best_r);
      for (int i = 0; i < rows.len[static_cast<std::size_t>(best_r)]; ++i) {
        const int c = pb[i].first;
        if (!col_active[static_cast<std::size_t>(c)]) continue;
        u_cols_.push_back(c);
        --col_cnt[static_cast<std::size_t>(c)];
        if (c == best_c) continue;
        ppos[static_cast<std::size_t>(c)] = static_cast<int>(prow.size());
        prow.push_back(pb[i]);
      }
    }
    u_ptr_.push_back(static_cast<int>(u_cols_.size()));
    col_active[static_cast<std::size_t>(best_c)] = 0;
    col_by_cnt.remove(best_c);

    // Eliminate: every other active row holding column best_c gets
    // row -= m * pivot_row over the other columns (creating fill); its
    // best_c entry goes dead with the column.  Fill lands only in the
    // pivot row's columns, so their counts are the only ones that move.
    const int np = static_cast<int>(prow.size());
    hit.assign(prow.size(), -1);
    const auto ubc = static_cast<std::size_t>(best_c);
    for (int li = 0; li < col_rows.len[ubc]; ++li) {
      const auto [r, pslot] =
          col_pool[static_cast<std::size_t>(col_rows.beg[ubc] + li)];
      const auto ur = static_cast<std::size_t>(r);
      if (!row_active[ur]) continue;
      Entry* row = row_begin(r);
      const T m = row[pslot].second / pivot;
      lrec.emplace_back(r, k);
      int hits = 0;
      for (int i = 0; i < rows.len[ur]; ++i) {
        // Dead slots are in pivoted columns, never the pivot row's.
        const int j = ppos[static_cast<std::size_t>(row[i].first)];
        if (j < 0) continue;
        row[i].second =
            row[i].second - mul(m, prow[static_cast<std::size_t>(j)].second);
        hit[static_cast<std::size_t>(j)] = r;
        ++hits;
      }
      int len = rows.len[ur];
      if (len + np - hits > rows.cap[ur])
        rows.reserve(r, 2 * (len + np - hits), row_pool);
      row = row_begin(r);
      for (int j = 0; j < np; ++j) {
        if (hit[static_cast<std::size_t>(j)] == r) continue;
        const Entry& e = prow[static_cast<std::size_t>(j)];
        row[len] = Entry(e.first, mul(-m, e.second));
        col_rows.push(e.first, Slot(r, len), col_pool);
        ++len;
        ++col_cnt[static_cast<std::size_t>(e.first)];
      }
      rows.len[ur] = len;
      row_cnt[ur] += np - hits - 1;
      row_by_cnt.move(r, row_cnt[ur]);
    }

    // Only the pivot row's columns changed: their maxima are recomputed
    // when the pivot search next asks for them.
    for (const Entry& e : prow) {
      const auto uc = static_cast<std::size_t>(e.first);
      ppos[uc] = -1;
      col_stale[uc] = 1;
      col_by_cnt.move(e.first, col_cnt[uc]);
    }
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
  if constexpr (std::is_same_v<T, double>) {
    min_pivot_ = n_ ? 1e300 : 0.0;
    max_pivot_ = 0.0;
  }

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
        lu[target] -= mul(m, lu[source]);
      }
    }

    const T d = u[s.u_ptr[static_cast<std::size_t>(i)]];
    if constexpr (std::is_same_v<T, double>) {
      const double piv = std::abs(d);
      if (piv < kPivotFloor) {
        singular_col_ = s.colperm[static_cast<std::size_t>(i)];
        return false;
      }
      if (piv < min_pivot_) min_pivot_ = piv;
      if (piv > max_pivot_) max_pivot_ = piv;
    } else {
      // |z| is never below max(|re|, |im|), so only a pivot whose larger
      // part is under the floor needs the modulus (hypot) to decide.  A
      // NaN part passes both tests, as it passes the modulus test.
      if (std::max(std::abs(d.real()), std::abs(d.imag())) < kPivotFloor &&
          std::abs(d) < kPivotFloor) {
        singular_col_ = s.colperm[static_cast<std::size_t>(i)];
        return false;
      }
    }
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
      acc -= mul(l_vals_[static_cast<std::size_t>(k)],
                 y[static_cast<std::size_t>(
                     l_cols_[static_cast<std::size_t>(k)])]);
    y[i] = acc;
  }
  // Back substitution with U (diagonal first in each row).
  for (std::size_t ii = n; ii-- > 0;) {
    T acc = y[ii];
    const int u0 = u_ptr_[ii];
    for (int k = u0 + 1; k < u_ptr_[ii + 1]; ++k)
      acc -= mul(u_vals_[static_cast<std::size_t>(k)],
                 y[static_cast<std::size_t>(
                     u_cols_[static_cast<std::size_t>(k)])]);
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
          mul(u_vals_[static_cast<std::size_t>(k)], vj);
  }
  // L^T is unit upper triangular: backward column sweep.
  for (std::size_t j = n; j-- > 0;) {
    const T vj = v[j];
    for (int k = l_ptr_[j]; k < l_ptr_[j + 1]; ++k)
      v[static_cast<std::size_t>(l_cols_[static_cast<std::size_t>(k)])] -=
          mul(l_vals_[static_cast<std::size_t>(k)], vj);
  }
  x.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    x[static_cast<std::size_t>(rowperm_[i])] = v[i];
}

template class SparseLu<double>;
template class SparseLu<std::complex<double>>;

}  // namespace msim::num
