// Sparse engine tests: SparseLu vs dense Lu agreement on random
// matrices (values, transpose solves, singular-column diagnosis,
// min_pivot), the Markowitz analysis pinned against a golden, symbolic
// export/adoption, the per-netlist solver cache, and full
// dense-vs-sparse agreement of OP/AC/noise on the paper's circuits and
// the fault-injection netlists.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/ac.h"
#include "analysis/mna.h"
#include "analysis/noise.h"
#include "analysis/op.h"
#include "bench_util.h"
#include "circuit/netlist.h"
#include "core/bandgap.h"
#include "golden_util.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "numeric/lu.h"
#include "numeric/rng.h"
#include "numeric/sparse.h"
#include "spicefmt/parser.h"

namespace {

using namespace msim;

std::string fault_path(const char* name) {
  return std::string(MSIM_TEST_DIR) + "/faults/" + name;
}

// Random diagonally-dominant sparse matrix: the diagonal plus about
// `extra_per_row` off-diagonal entries per row.
template <typename T>
num::SparseMatrix<T> random_sparse(int n, int extra_per_row,
                                   num::Rng& rng) {
  num::SparsityPattern pat(n);
  for (int i = 0; i < n; ++i) pat.add(i, i);
  std::vector<std::pair<int, int>> off;
  for (int i = 0; i < n; ++i)
    for (int k = 0; k < extra_per_row; ++k) {
      const int j = static_cast<int>(rng.uniform(0.0, double(n)));
      if (j != i && j < n) {
        pat.add(i, j);
        off.emplace_back(i, j);
      }
    }
  num::SparseMatrix<T> a(pat);
  for (int i = 0; i < n; ++i) {
    if constexpr (std::is_same_v<T, double>)
      a.add(i, i, 4.0 + std::abs(rng.normal()));
    else
      a.add(i, i, T(4.0 + std::abs(rng.normal()), rng.normal()));
  }
  for (const auto& [i, j] : off) {
    if constexpr (std::is_same_v<T, double>)
      a.add(i, j, rng.normal());
    else
      a.add(i, j, T(rng.normal(), rng.normal()));
  }
  return a;
}

template <typename T>
std::vector<T> random_rhs(int n, num::Rng& rng) {
  std::vector<T> b(static_cast<std::size_t>(n));
  for (auto& v : b) {
    if constexpr (std::is_same_v<T, double>)
      v = rng.normal();
    else
      v = T(rng.normal(), rng.normal());
  }
  return b;
}

// ---- SparseLu vs dense Lu on random matrices ------------------------

TEST(SparseLu, RandomMatricesMatchDense) {
  num::Rng rng(42);
  for (int n : {3, 8, 25, 60}) {
    const auto a = random_sparse<double>(n, 4, rng);
    const auto b = random_rhs<double>(n, rng);

    num::RealLu dense(a.to_dense());
    ASSERT_FALSE(dense.singular()) << "n = " << n;
    num::RealSparseLu sparse;
    sparse.factor(a);
    ASSERT_FALSE(sparse.singular()) << "n = " << n;
    EXPECT_TRUE(sparse.has_symbolic());

    const auto xd = dense.solve(b);
    const auto xs = sparse.solve(b);
    const auto td = dense.solve_transpose(b);
    const auto ts = sparse.solve_transpose(b);
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(xs[i], xd[i], 1e-9 * (1.0 + std::abs(xd[i])))
          << "n = " << n << " i = " << i;
      EXPECT_NEAR(ts[i], td[i], 1e-9 * (1.0 + std::abs(td[i])))
          << "n = " << n << " i = " << i;
    }
  }
}

TEST(SparseLu, ComplexMatricesMatchDense) {
  using C = std::complex<double>;
  num::Rng rng(7);
  for (int n : {5, 30}) {
    const auto a = random_sparse<C>(n, 3, rng);
    const auto b = random_rhs<C>(n, rng);

    num::ComplexLu dense(a.to_dense());
    ASSERT_FALSE(dense.singular());
    num::ComplexSparseLu sparse;
    sparse.factor(a);
    ASSERT_FALSE(sparse.singular());

    const auto xd = dense.solve(b);
    const auto xs = sparse.solve(b);
    const auto td = dense.solve_transpose(b);
    const auto ts = sparse.solve_transpose(b);
    for (int i = 0; i < n; ++i) {
      EXPECT_LT(std::abs(xs[i] - xd[i]), 1e-9 * (1.0 + std::abs(xd[i])));
      EXPECT_LT(std::abs(ts[i] - td[i]), 1e-9 * (1.0 + std::abs(td[i])));
    }
  }
}

TEST(SparseLu, RefactorWithNewValuesMatchesDense) {
  // Same pattern, new values: the second factor() takes the cached
  // symbolic path (no re-analysis) and must still match dense exactly.
  num::Rng rng(11);
  auto a = random_sparse<double>(40, 4, rng);
  num::RealSparseLu sparse;
  sparse.factor(a);
  ASSERT_FALSE(sparse.singular());
  const int serial = sparse.symbolic_serial();

  // Perturb every value in place (pattern unchanged).
  for (auto& v : a.values()) v *= 1.0 + 0.01 * rng.normal();
  sparse.factor(a);
  ASSERT_FALSE(sparse.singular());
  EXPECT_EQ(sparse.symbolic_serial(), serial) << "unexpected re-analysis";

  num::RealLu dense(a.to_dense());
  const auto b = random_rhs<double>(40, rng);
  const auto xd = dense.solve(b);
  const auto xs = sparse.solve(b);
  for (int i = 0; i < 40; ++i)
    EXPECT_NEAR(xs[i], xd[i], 1e-9 * (1.0 + std::abs(xd[i])));
}

TEST(SparseLu, SingularColumnDiagnosisMatchesDense) {
  // Zero an entire column of a well-conditioned matrix: both engines
  // must report singular and name that exact column.
  num::Rng rng(3);
  const int n = 12, dead = 5;
  num::SparsityPattern pat(n);
  for (int i = 0; i < n; ++i) pat.add(i, i);
  num::RealSparseMatrix a(pat);
  for (int i = 0; i < n; ++i)
    if (i != dead) a.add(i, i, 2.0 + std::abs(rng.normal()));

  num::RealLu dense(a.to_dense());
  num::RealSparseLu sparse;
  sparse.factor(a);
  EXPECT_TRUE(dense.singular());
  EXPECT_TRUE(sparse.singular());
  EXPECT_EQ(dense.singular_col(), dead);
  EXPECT_EQ(sparse.singular_col(), dead);
}

TEST(SparseLu, MinPivotOnDiagonalMatrix) {
  // On a diagonal matrix the pivots are the diagonal itself, so both
  // engines must report the same smallest magnitude.
  num::SparsityPattern pat(3);
  for (int i = 0; i < 3; ++i) pat.add(i, i);
  num::RealSparseMatrix a(pat);
  a.add(0, 0, 4.0);
  a.add(1, 1, 0.5);
  a.add(2, 2, 8.0);

  num::RealLu dense(a.to_dense());
  num::RealSparseLu sparse;
  sparse.factor(a);
  ASSERT_FALSE(sparse.singular());
  EXPECT_DOUBLE_EQ(sparse.min_pivot(), 0.5);
  EXPECT_DOUBLE_EQ(dense.min_pivot(), 0.5);
}

TEST(SparseLu, ComplexPivotFloorUsesTheModulus) {
  // The pivot floor (1e-30) applies to |z|.  8e-31 + 8e-31i has both
  // parts below the floor but |z| ~ 1.13e-30 above it: usable.
  // 5e-31 + 5e-31i has |z| ~ 7.1e-31: singular.  A NaN pivot passes
  // the floor (no comparison with NaN is true) and is left for the
  // solve to surface.  Each value is checked twice: by a fresh
  // analysis, and by the refactor replaying an analysis made with a
  // unit pivot.
  using C = std::complex<double>;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  num::SparsityPattern pat(2);
  pat.add(0, 0);
  pat.add(1, 1);
  auto matrix = [&](C pivot) {
    num::ComplexSparseMatrix a(pat);
    a.add(0, 0, C(1.0, 0.0));
    a.add(1, 1, pivot);
    return a;
  };
  struct Case {
    C pivot;
    bool singular;
  };
  for (const auto& [pivot, singular] :
       {Case{C(8e-31, 8e-31), false}, Case{C(-8e-31, 8e-31), false},
        Case{C(5e-31, 5e-31), true}, Case{C(5e-31, -5e-31), true},
        Case{C(nan, 0.0), false}, Case{C(1e-31, nan), false}}) {
    num::ComplexSparseLu fresh;
    fresh.factor(matrix(pivot));
    EXPECT_EQ(fresh.singular(), singular) << pivot;
    if (singular) {
      EXPECT_EQ(fresh.singular_col(), 1) << pivot;
    }

    num::ComplexSparseLu replay;
    replay.factor(matrix(C(1.0, 0.0)));
    ASSERT_FALSE(replay.singular());
    const int serial = replay.symbolic_serial();
    replay.factor(matrix(pivot));
    EXPECT_EQ(replay.singular(), singular) << pivot;
    // A pivot that passes the refactor's floor keeps the analysis.
    if (!singular) {
      EXPECT_EQ(replay.symbolic_serial(), serial) << pivot;
    }
  }
}

// ---- the Markowitz analysis, pinned ---------------------------------

// Pivot order and L/U fill pattern of a fresh analysis of `a`, as text:
// the analysis's whole output, so a golden of it pins every pivot
// choice and tie-break.  A singular matrix prints the column it failed
// on.
template <typename T>
std::string symbolic_text(const std::string& name,
                          const num::SparseMatrix<T>& a) {
  std::string s = "== " + name + " n=" + std::to_string(a.rows()) +
                  " nnz=" + std::to_string(a.nnz()) + "\n";
  num::SparseLu<T> lu;
  lu.factor(a);
  if (lu.singular())
    return s + "singular_col " + std::to_string(lu.singular_col()) + "\n";
  const auto sym = lu.export_symbolic();
  auto line = [&](const char* tag, const std::vector<int>& v) {
    s += tag;
    for (int x : v) s += " " + std::to_string(x);
    s += "\n";
  };
  line("rowperm", sym->rowperm);
  line("colperm", sym->colperm);
  line("l_ptr", sym->l_ptr);
  line("l_cols", sym->l_cols);
  line("u_ptr", sym->u_ptr);
  line("u_cols", sym->u_cols);
  return s;
}

// The DC (or transient) Jacobian of `nl` at `x` (zeros when empty).
num::RealSparseMatrix jacobian_at(
    ckt::Netlist& nl, num::RealVector x = {},
    ckt::AnalysisMode mode = ckt::AnalysisMode::kDcOp) {
  nl.assign_unknowns();
  if (x.empty()) x.assign(static_cast<std::size_t>(nl.unknown_count()), 0.0);
  an::AssembleParams p;
  p.mode = mode;
  if (mode == ckt::AnalysisMode::kTransient) p.dt = 1e-6;
  an::RealSystem sys;
  sys.init(nl, an::SolverKind::kSparse);
  sys.assemble(nl, x, p);
  return sys.sparse_jac();
}

// Seeded random pattern with values drawn from a small set, so equal
// Markowitz costs and equal magnitudes (the tie-breaks) are common.
// Missing diagonals and unusable values make some draws singular.
template <typename T>
num::SparseMatrix<T> random_pattern(std::uint64_t seed) {
  num::Rng rng(seed);
  const int n = 1 + static_cast<int>(rng.next_u64() % 24);
  const int per_row = 1 + static_cast<int>(rng.next_u64() % 4);
  const bool diag = rng.next_u64() % 8 != 0;
  num::SparsityPattern pat(n);
  for (int i = 0; i < n; ++i) {
    if (diag) pat.add(i, i);
    for (int k = 0; k < per_row; ++k)
      pat.add(i, static_cast<int>(rng.next_u64() % static_cast<unsigned>(n)));
  }
  num::SparseMatrix<T> a(pat);
  // One draw in sixteen is unusable as a pivot: zero, or 1e-31 (under
  // the floor).
  const double set[] = {1.0, -1.0, 2.0,  0.5,  -0.5, 3.0, -2.0, 1e-3,
                        1.0, -1.0, 4.0, -3.0, 0.25, 2.0, 1.5,  0.0};
  auto draw = [&] {
    const double x = set[rng.next_u64() % 16];
    return x == 0.0 && rng.next_u64() % 2 ? 1e-31 : x;
  };
  for (auto& v : a.values()) {
    if constexpr (std::is_same_v<T, double>) {
      v = draw();
    } else {
      const double re = draw();
      v = T(re, draw());
    }
  }
  return a;
}

TEST(SparseLu, SymbolicAnalysisMatchesGolden) {
  std::string text;
  for (int code = 0; code <= 5; ++code) {
    auto rig = bench::make_mic_rig();
    rig->mic.set_gain_code(code);
    const std::string tag = "mic_code" + std::to_string(code);
    text += symbolic_text(tag + "_x0", jacobian_at(rig->nl));
    const auto op = an::solve_op(rig->nl);
    ASSERT_TRUE(op.converged) << tag;
    text += symbolic_text(tag + "_op", jacobian_at(rig->nl, op.x));
  }
  {
    auto rig = bench::make_chip_rig();
    text += symbolic_text("chip_x0", jacobian_at(rig->nl));
  }
  {
    auto rig = bench::make_drv_rig();
    const auto op = an::solve_op(rig->nl);
    ASSERT_TRUE(op.converged);
    for (const auto& d : rig->nl.devices()) d->begin_transient(op.x);
    text += symbolic_text(
        "class_ab_tran",
        jacobian_at(rig->nl, op.x, ckt::AnalysisMode::kTransient));
  }
  {
    ckt::Netlist nl;
    const auto nvdd = nl.node("vdd");
    const auto nvss = nl.node("vss");
    nl.add<dev::VSource>("Vdd", nvdd, ckt::kGround, 1.3);
    nl.add<dev::VSource>("Vss", nvss, ckt::kGround, -1.3);
    (void)core::build_bandgap(nl, proc::ProcessModel::cmos12(), {}, nvdd,
                              nvss, ckt::kGround);
    text += symbolic_text("bandgap_x0", jacobian_at(nl));
  }
  std::vector<std::filesystem::path> decks;
  for (const auto& e : std::filesystem::directory_iterator(
           std::filesystem::path(MSIM_TEST_DIR) / ".." / "examples" /
           "netlists"))
    if (e.path().extension() == ".sp") decks.push_back(e.path());
  std::sort(decks.begin(), decks.end());
  for (const auto& f : decks) {
    auto parsed = spice::parse_netlist_file(f.string());
    ASSERT_TRUE(parsed.netlist) << f;
    text += symbolic_text("examples_" + f.stem().string(),
                          jacobian_at(*parsed.netlist));
  }
  for (std::uint64_t seed = 1; seed <= 150; ++seed)
    text += symbolic_text("random_" + std::to_string(seed),
                          random_pattern<double>(seed));
  for (std::uint64_t seed = 1001; seed <= 1030; ++seed)
    text += symbolic_text("random_complex_" + std::to_string(seed),
                          random_pattern<std::complex<double>>(seed));
  golden::expect("numeric/symbolic.txt", text);
}

// ---- complex kernels against std::complex operators -----------------

using Complex = std::complex<double>;

// Factor values, solve and transpose solve of `a` along the symbolic
// `s`, written with std::complex's operators (whose products call
// libgcc's __muldc3 for a NaN result): the reference for the LU
// kernels, which write the product out.
struct ComplexReference {
  std::vector<Complex> lu;
  bool singular = false;
  std::vector<Complex> x, xt;
};

ComplexReference complex_reference(const num::SparseSymbolic& s,
                                   const num::ComplexSparseMatrix& a,
                                   const std::vector<Complex>& b) {
  ComplexReference ref;
  const auto n = static_cast<std::size_t>(s.n);
  const std::size_t nl = s.l_cols.size();
  ref.lu.assign(nl + s.u_cols.size(), Complex{});
  for (std::size_t k = 0; k < a.values().size(); ++k)
    ref.lu[static_cast<std::size_t>(s.a_pos[k])] = a.values()[k];
  Complex* lu = ref.lu.data();
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = s.l_ptr[i]; k < s.l_ptr[i + 1]; ++k) {
      const Complex m = lu[k] / lu[s.l_diag[static_cast<std::size_t>(k)]];
      lu[k] = m;
      if (m == Complex{}) continue;
      for (int q = s.l_upd[static_cast<std::size_t>(k)];
           q < s.l_upd[static_cast<std::size_t>(k) + 1]; ++q) {
        const auto [target, source] = s.upd[static_cast<std::size_t>(q)];
        lu[target] -= m * lu[source];
      }
    }
    if (std::abs(lu[nl + static_cast<std::size_t>(s.u_ptr[i])]) < 1e-30)
      ref.singular = true;
  }
  if (ref.singular) return ref;
  const Complex* u = lu + nl;
  std::vector<Complex> y(n);
  for (std::size_t i = 0; i < n; ++i)
    y[i] = b[static_cast<std::size_t>(s.rowperm[i])];
  for (std::size_t i = 0; i < n; ++i)
    for (int k = s.l_ptr[i]; k < s.l_ptr[i + 1]; ++k)
      y[i] -= lu[k] * y[static_cast<std::size_t>(s.l_cols[k])];
  for (std::size_t i = n; i-- > 0;) {
    for (int k = s.u_ptr[i] + 1; k < s.u_ptr[i + 1]; ++k)
      y[i] -= u[k] * y[static_cast<std::size_t>(s.u_cols[k])];
    y[i] = y[i] / u[s.u_ptr[i]];
  }
  ref.x.assign(n, Complex{});
  for (std::size_t j = 0; j < n; ++j)
    ref.x[static_cast<std::size_t>(s.colperm[j])] = y[j];
  std::vector<Complex> v(n);
  for (std::size_t j = 0; j < n; ++j)
    v[j] = b[static_cast<std::size_t>(s.colperm[j])];
  for (std::size_t j = 0; j < n; ++j) {
    v[j] /= u[s.u_ptr[j]];
    for (int k = s.u_ptr[j] + 1; k < s.u_ptr[j + 1]; ++k)
      v[static_cast<std::size_t>(s.u_cols[k])] -= u[k] * v[j];
  }
  for (std::size_t j = n; j-- > 0;)
    for (int k = s.l_ptr[j]; k < s.l_ptr[j + 1]; ++k)
      v[static_cast<std::size_t>(s.l_cols[k])] -= lu[k] * v[j];
  ref.xt.assign(n, Complex{});
  for (std::size_t i = 0; i < n; ++i)
    ref.xt[static_cast<std::size_t>(s.rowperm[i])] = v[i];
  return ref;
}

bool same_bits(const Complex& p, const Complex& q) {
  return std::memcmp(&p, &q, sizeof(Complex)) == 0;
}

// A fresh factorization of `a` (its own analysis), its solve and its
// transpose solve against the reference along the same symbolic; false
// when `a` is singular.
bool expect_complex_kernels_match(const num::ComplexSparseMatrix& a,
                                  const std::string& label) {
  num::ComplexSparseLu lu;
  lu.factor(a);
  if (lu.singular()) return false;
  std::vector<Complex> b(static_cast<std::size_t>(a.rows()));
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = Complex(1.0 + 0.37 * double(i), 0.5 - 0.11 * double(i));
  const auto ref = complex_reference(*lu.export_symbolic(), a, b);
  EXPECT_FALSE(ref.singular) << label;
  const auto x = lu.solve(b);
  const auto xt = lu.solve_transpose(b);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_TRUE(same_bits(x[i], ref.x[i])) << label << " x[" << i << "]";
    EXPECT_TRUE(same_bits(xt[i], ref.xt[i])) << label << " xt[" << i << "]";
  }
  return true;
}

// The mic amp's AC matrix at gain code 2 and 10 kHz.
num::ComplexSparseMatrix mic_ac_matrix() {
  auto rig = bench::make_mic_rig();
  rig->mic.set_gain_code(2);
  EXPECT_TRUE(an::solve_op(rig->nl).converged);
  const an::AcImage image(rig->nl, an::SolverKind::kSparse, 1e-12);
  an::ComplexSystem sys(image);
  sys.assemble(2.0 * 3.141592653589793 * 1e4);
  return sys.sparse_jac();
}

TEST(SparseLu, ComplexKernelsMatchStdComplexBitForBit) {
  int factored = 0;
  for (std::uint64_t seed = 1001; seed <= 1200; ++seed)
    factored += expect_complex_kernels_match(
        random_pattern<Complex>(seed), "random_complex_" +
                                           std::to_string(seed));
  EXPECT_GE(factored, 150);
  EXPECT_TRUE(expect_complex_kernels_match(mic_ac_matrix(), "mic ac"));
}

// A NaN or inf entry fails the factorization as before: the pivot
// check lets it through and the solution is non-finite, in the same
// unknowns as the std::complex reference's.
TEST(SparseLu, ComplexNonFiniteEntryFailsAsBefore) {
  const auto clean = mic_ac_matrix();
  num::ComplexSparseLu analysed;
  analysed.factor(clean);
  ASSERT_FALSE(analysed.singular());
  const auto sym = analysed.export_symbolic();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Complex> b(static_cast<std::size_t>(clean.rows()),
                               Complex(1.0, -0.5));
  for (const Complex bad : {Complex(nan, 0.0), Complex(inf, 0.0),
                            Complex(0.0, -inf)}) {
    for (const std::size_t k : {std::size_t{0}, clean.values().size() / 2}) {
      auto a = clean;
      a.values()[k] = bad;
      num::ComplexSparseLu lu;
      lu.adopt_symbolic(sym);
      lu.factor(a);
      const auto ref = complex_reference(*sym, a, b);
      const std::string label = "entry " + std::to_string(k);
      ASSERT_EQ(lu.singular(), ref.singular) << label;
      if (lu.singular()) continue;
      const auto x = lu.solve(b);
      const auto xt = lu.solve_transpose(b);
      int non_finite = 0;
      for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(std::isfinite(std::abs(x[i])),
                  std::isfinite(std::abs(ref.x[i])))
            << label << " x[" << i << "]";
        EXPECT_EQ(std::isfinite(std::abs(xt[i])),
                  std::isfinite(std::abs(ref.xt[i])))
            << label << " xt[" << i << "]";
        non_finite += !std::isfinite(std::abs(x[i]));
      }
      EXPECT_GT(non_finite, 0) << label;
    }
  }
}

// ---- symbolic export / adoption -------------------------------------

TEST(SparseLu, AdoptedSymbolicReproducesFromScratchFactorization) {
  num::Rng rng(17);
  const auto a = random_sparse<double>(50, 4, rng);
  const auto b = random_rhs<double>(50, rng);

  num::RealSparseLu first;
  first.factor(a);
  ASSERT_FALSE(first.singular());
  const auto sym = first.export_symbolic();
  ASSERT_TRUE(sym);

  num::RealSparseLu second;
  second.adopt_symbolic(*sym);
  EXPECT_TRUE(second.has_symbolic());
  second.factor(a);  // must take the refactor path, not re-analyze
  ASSERT_FALSE(second.singular());

  const auto x1 = first.solve(b);
  const auto x2 = second.solve(b);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(x1[i], x2[i]) << "adopted analysis diverged at " << i;
}

TEST(SparseLu, StaleAdoptionFallsBackToReanalysis) {
  // Adopt an analysis built for a *different* pattern: factor() must
  // notice (nnz mismatch) and re-analyze instead of producing garbage.
  num::Rng rng(23);
  const auto a = random_sparse<double>(20, 2, rng);
  const auto other = random_sparse<double>(20, 5, rng);

  num::RealSparseLu donor;
  donor.factor(other);
  ASSERT_FALSE(donor.singular());

  num::RealSparseLu lu;
  lu.adopt_symbolic(*donor.export_symbolic());
  const int adopted_serial = lu.symbolic_serial();
  lu.factor(a);
  ASSERT_FALSE(lu.singular());
  EXPECT_NE(lu.symbolic_serial(), adopted_serial) << "no re-analysis ran";

  num::RealLu dense(a.to_dense());
  const auto b = random_rhs<double>(20, rng);
  const auto xd = dense.solve(b);
  const auto xs = lu.solve(b);
  for (int i = 0; i < 20; ++i)
    EXPECT_NEAR(xs[i], xd[i], 1e-9 * (1.0 + std::abs(xd[i])));
}

TEST(SolverCache, AdoptedNetlistCacheGivesIdenticalOpSolution) {
  // Monte-Carlo idiom: a sample netlist adopts the nominal build's
  // solver cache; the solution must be bit-identical to a cold solve.
  auto nominal = bench::make_mic_rig();
  an::OpOptions oo;
  oo.solver = an::SolverKind::kSparse;
  const auto warm = an::solve_op(nominal->nl, oo);
  ASSERT_TRUE(warm.converged);
  ASSERT_TRUE(nominal->nl.solver_cache().symbolic);

  auto cold = bench::make_mic_rig();
  const auto op_cold = an::solve_op(cold->nl, oo);
  ASSERT_TRUE(op_cold.converged);

  auto adopted = bench::make_mic_rig();
  adopted->nl.adopt_solver_cache(nominal->nl);
  const auto op_adopted = an::solve_op(adopted->nl, oo);
  ASSERT_TRUE(op_adopted.converged);

  ASSERT_EQ(op_cold.x.size(), op_adopted.x.size());
  for (std::size_t i = 0; i < op_cold.x.size(); ++i)
    EXPECT_EQ(op_cold.x[i], op_adopted.x[i]) << "unknown " << i;
}

// ---- dense vs sparse on whole analyses ------------------------------

void expect_ops_agree(const an::OpResult& d, const an::OpResult& s,
                      double tol) {
  ASSERT_EQ(d.converged, s.converged);
  if (!d.converged) return;
  ASSERT_EQ(d.x.size(), s.x.size());
  for (std::size_t i = 0; i < d.x.size(); ++i)
    EXPECT_NEAR(s.x[i], d.x[i], tol * (1.0 + std::abs(d.x[i])))
        << "unknown " << i;
}

TEST(EngineAgreement, FaultNetlistsAgreeAcrossEngines) {
  // Every fault-injection netlist must fail (or solve) the same way on
  // both engines: same converged flag, same structured status.
  const char* files[] = {"vloop.sp", "floating_node.sp",
                         "nan_resistor.sp", "duplicate_names.sp",
                         "dangling_terminal.sp"};
  for (const char* f : files) {
    auto parsed = spice::parse_netlist_file(fault_path(f));
    ASSERT_TRUE(parsed.netlist) << f;
    an::OpOptions dense_opt;
    dense_opt.lint = false;  // reach the matrix on both paths
    dense_opt.solver = an::SolverKind::kDense;
    an::OpOptions sparse_opt = dense_opt;
    sparse_opt.solver = an::SolverKind::kSparse;
    const auto d = an::solve_op(*parsed.netlist, dense_opt);
    const auto s = an::solve_op(*parsed.netlist, sparse_opt);
    EXPECT_EQ(d.converged, s.converged) << f;
    EXPECT_EQ(d.diag.status, s.diag.status) << f;
    if (d.converged && s.converged) expect_ops_agree(d, s, 1e-6);
  }
}

TEST(EngineAgreement, MicAmpOpAcNoiseAgree) {
  auto rig = bench::make_mic_rig();
  an::OpOptions od;
  od.solver = an::SolverKind::kDense;
  an::OpOptions os;
  os.solver = an::SolverKind::kSparse;

  const auto opd = an::solve_op(rig->nl, od);
  const auto ops = an::solve_op(rig->nl, os);
  ASSERT_TRUE(opd.converged);
  expect_ops_agree(opd, ops, 1e-6);

  const auto freqs = an::log_frequencies(10.0, 10e6, 3);
  an::AcOptions ad;
  ad.solver = an::SolverKind::kDense;
  an::AcOptions as;
  as.solver = an::SolverKind::kSparse;
  const auto acd = an::run_ac(rig->nl, freqs, ad);
  const auto acs = an::run_ac(rig->nl, freqs, as);
  ASSERT_EQ(acd.solutions.size(), freqs.size());
  ASSERT_EQ(acs.solutions.size(), freqs.size());
  for (std::size_t k = 0; k < freqs.size(); ++k) {
    const auto gd = acd.vdiff(k, rig->mic.outp, rig->mic.outn);
    const auto gs = acs.vdiff(k, rig->mic.outp, rig->mic.outn);
    EXPECT_LT(std::abs(gd - gs), 1e-6 * (1.0 + std::abs(gd)))
        << "f = " << freqs[k];
  }

  an::NoiseOptions nd;
  nd.out_p = rig->mic.outp;
  nd.out_n = rig->mic.outn;
  nd.input_source = "Vinp";
  nd.solver = an::SolverKind::kDense;
  an::NoiseOptions ns = nd;
  ns.solver = an::SolverKind::kSparse;
  const auto noised = an::run_noise(rig->nl, {1e2, 1e3, 1e4}, nd);
  const auto noises = an::run_noise(rig->nl, {1e2, 1e3, 1e4}, ns);
  ASSERT_EQ(noised.points.size(), noises.points.size());
  for (std::size_t k = 0; k < noised.points.size(); ++k) {
    const auto& pd = noised.points[k];
    const auto& ps = noises.points[k];
    EXPECT_LT(std::abs(ps.s_out - pd.s_out), 1e-6 * pd.s_out);
    EXPECT_LT(std::abs(ps.s_in - pd.s_in), 1e-6 * pd.s_in);
    EXPECT_LT(std::abs(ps.gain_mag - pd.gain_mag), 1e-6 * pd.gain_mag);
  }
}

TEST(EngineAgreement, BandgapOpAgrees) {
  ckt::Netlist nl;
  const auto nvdd = nl.node("vdd");
  const auto nvss = nl.node("vss");
  nl.add<dev::VSource>("Vdd", nvdd, ckt::kGround, 1.3);
  nl.add<dev::VSource>("Vss", nvss, ckt::kGround, -1.3);
  const auto pm = proc::ProcessModel::cmos12();
  (void)core::build_bandgap(nl, pm, {}, nvdd, nvss, ckt::kGround);

  an::OpOptions od;
  od.solver = an::SolverKind::kDense;
  an::OpOptions os;
  os.solver = an::SolverKind::kSparse;
  const auto d = an::solve_op(nl, od);
  const auto s = an::solve_op(nl, os);
  ASSERT_TRUE(d.converged);
  expect_ops_agree(d, s, 1e-6);
}

TEST(EngineAgreement, ClassAbDriverOpAgrees) {
  auto rig = bench::make_drv_rig();
  an::OpOptions od;
  od.solver = an::SolverKind::kDense;
  an::OpOptions os;
  os.solver = an::SolverKind::kSparse;
  const auto d = an::solve_op(rig->nl, od);
  const auto s = an::solve_op(rig->nl, os);
  ASSERT_TRUE(d.converged);
  expect_ops_agree(d, s, 1e-6);
}

TEST(EngineAgreement, GshuntAndGminIdenticalAcrossEngines) {
  // A capacitor-only node survives DC solely through the gshunt guard;
  // both engines must regularize it identically (the sparse pattern
  // registers every node diagonal for exactly this reason).
  ckt::Netlist nl;
  const auto in = nl.node("in");
  const auto mid = nl.node("mid");
  nl.add<dev::VSource>("V1", in, ckt::kGround, 1.0);
  nl.add<dev::Resistor>("R1", in, mid, 1e3);
  nl.add<dev::Capacitor>("C1", mid, ckt::kGround, 1e-9);

  for (double gshunt : {1e-12, 1e-9}) {
    an::OpOptions od;
    od.solver = an::SolverKind::kDense;
    od.gshunt = gshunt;
    od.gmin = 1e-9;
    an::OpOptions os = od;
    os.solver = an::SolverKind::kSparse;
    const auto d = an::solve_op(nl, od);
    const auto s = an::solve_op(nl, os);
    ASSERT_TRUE(d.converged);
    ASSERT_TRUE(s.converged);
    for (std::size_t i = 0; i < d.x.size(); ++i)
      EXPECT_NEAR(s.x[i], d.x[i], 1e-9 * (1.0 + std::abs(d.x[i])));
  }
}

// ---- assembly-mode oracle on the fault netlists ---------------------

// NaN-safe bitwise equality: nan_resistor.sp stamps NaN conductances,
// and the batched path must reproduce even those bit-for-bit.
void expect_same_bits(double a, double b, const std::string& msg) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << msg;
}

TEST(EngineAgreement, FaultNetlistsBatchedStampMatchesLegacy) {
  // The slot-replay + batched assembly must write exactly the image the
  // searched per-device-virtual legacy path writes, even on the
  // pathological fault-injection netlists.
  const char* files[] = {"vloop.sp", "floating_node.sp",
                         "nan_resistor.sp", "duplicate_names.sp",
                         "dangling_terminal.sp"};
  for (const char* f : files) {
    auto p1 = spice::parse_netlist_file(fault_path(f));
    auto p2 = spice::parse_netlist_file(fault_path(f));
    ASSERT_TRUE(p1.netlist && p2.netlist) << f;
    auto& legacy_nl = *p1.netlist;
    auto& fast_nl = *p2.netlist;
    if (legacy_nl.devices().empty()) continue;
    legacy_nl.assign_unknowns();
    fast_nl.assign_unknowns();
    const int n = legacy_nl.unknown_count();
    if (n == 0) continue;

    an::AssembleParams p;
    const num::RealVector x(static_cast<std::size_t>(n), 0.0);

    an::RealSystem legacy;
    legacy.init(legacy_nl, an::SolverKind::kSparse);
    legacy.set_assembly_modes(false, false);
    legacy.assemble(legacy_nl, x, p);

    an::RealSystem fast;
    fast.init(fast_nl, an::SolverKind::kSparse);
    fast.set_assembly_modes(true, true);
    fast.assemble(fast_nl, x, p);

    const auto& lv = legacy.sparse_jac().values();
    const auto& fv = fast.sparse_jac().values();
    ASSERT_EQ(lv.size(), fv.size()) << f;
    for (std::size_t i = 0; i < lv.size(); ++i)
      expect_same_bits(lv[i], fv[i],
                       std::string(f) + " value " + std::to_string(i));
    ASSERT_EQ(legacy.rhs().size(), fast.rhs().size()) << f;
    for (std::size_t i = 0; i < legacy.rhs().size(); ++i)
      expect_same_bits(legacy.rhs()[i], fast.rhs()[i],
                       std::string(f) + " rhs " + std::to_string(i));

    // After the recording warm-up the fast path replays search-free,
    // fault netlist or not.
    fast.invalidate_base();
    const long s0 = num::sparse_search_count();
    fast.assemble(fast_nl, x, p);
    EXPECT_EQ(num::sparse_search_count() - s0, 0) << f;
  }
}

TEST(EngineAgreement, FaultNetlistsDenseSparseAssembliesAgree) {
  // The dense and sparse free assembly functions must produce the same
  // matrix entry-for-entry (same device order, same arithmetic), with
  // off-pattern dense entries exactly zero.
  const char* files[] = {"vloop.sp", "floating_node.sp",
                         "nan_resistor.sp", "duplicate_names.sp",
                         "dangling_terminal.sp"};
  for (const char* f : files) {
    auto parsed = spice::parse_netlist_file(fault_path(f));
    ASSERT_TRUE(parsed.netlist) << f;
    auto& nl = *parsed.netlist;
    if (nl.devices().empty()) continue;
    nl.assign_unknowns();
    const int n = nl.unknown_count();
    if (n == 0) continue;

    an::AssembleParams p;
    const num::RealVector x(static_cast<std::size_t>(n), 0.0);
    num::RealMatrix dj;
    num::RealVector dr;
    an::assemble_real(nl, x, p, dj, dr);
    num::RealSparseMatrix sj(an::mna_pattern(nl));
    num::RealVector sr;
    an::assemble_real(nl, x, p, sj, sr);

    const auto sd = sj.to_dense();
    for (int r = 0; r < n; ++r)
      for (int c = 0; c < n; ++c)
        expect_same_bits(dj(r, c), sd(r, c),
                         std::string(f) + " (" + std::to_string(r) +
                             "," + std::to_string(c) + ")");
    ASSERT_EQ(dr.size(), sr.size()) << f;
    for (std::size_t i = 0; i < dr.size(); ++i)
      expect_same_bits(dr[i], sr[i],
                       std::string(f) + " rhs " + std::to_string(i));
  }
}

}  // namespace
