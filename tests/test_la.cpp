// Unit tests for the dense linear-algebra substrate (src/la).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>

#include "la/blas.hpp"
#include "la/dst.hpp"
#include "la/eigen.hpp"
#include "la/id.hpp"
#include "la/lapack.hpp"
#include "la/ldlt.hpp"
#include "la/matrix.hpp"
#include "la/qr.hpp"

namespace gofmm::la {
namespace {

// ------------------------------------------------------------- Matrix ----

TEST(Matrix, ConstructionAndAccess) {
  Matrix<double> a(3, 4, 1.5);
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 4);
  EXPECT_EQ(a.size(), 12);
  EXPECT_DOUBLE_EQ(a(2, 3), 1.5);
  a(1, 2) = -2.0;
  EXPECT_DOUBLE_EQ(a(1, 2), -2.0);
  // Column-major: col pointer arithmetic.
  EXPECT_EQ(a.col(2) + 1, &a(1, 2));
}

TEST(Matrix, NegativeDimensionThrows) {
  EXPECT_THROW(Matrix<double>(-1, 2), std::invalid_argument);
}

TEST(Matrix, BlockAndGather) {
  Matrix<double> a(4, 4);
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < 4; ++i) a(i, j) = double(10 * i + j);
  Matrix<double> b = a.block(1, 2, 2, 2);
  EXPECT_DOUBLE_EQ(b(0, 0), 12.0);
  EXPECT_DOUBLE_EQ(b(1, 1), 23.0);

  std::vector<index_t> I = {3, 0};
  std::vector<index_t> J = {1, 2};
  Matrix<double> g = a.gather(I, J);
  EXPECT_DOUBLE_EQ(g(0, 0), 31.0);
  EXPECT_DOUBLE_EQ(g(1, 1), 2.0);
}

TEST(Matrix, TransposeIdentityNorms) {
  Matrix<double> a = Matrix<double>::random_normal(5, 3, 42);
  Matrix<double> at = a.transposed();
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(a(i, j), at(j, i));
  Matrix<double> id = Matrix<double>::identity(4);
  EXPECT_DOUBLE_EQ(norm_fro(id), 2.0);
  EXPECT_DOUBLE_EQ(norm_max(id), 1.0);
}

TEST(Matrix, RandomIsDeterministic) {
  auto a = Matrix<double>::random_normal(4, 4, 7);
  auto b = Matrix<double>::random_normal(4, 4, 7);
  EXPECT_DOUBLE_EQ(diff_fro(a, b), 0.0);
  auto c = Matrix<double>::random_normal(4, 4, 8);
  EXPECT_GT(diff_fro(a, c), 0.0);
}

// --------------------------------------------------------------- GEMM ----

template <typename T>
Matrix<T> naive_gemm(Op opa, Op opb, T alpha, const Matrix<T>& a,
                     const Matrix<T>& b, T beta, const Matrix<T>& c0) {
  auto A = (opa == Op::None) ? a : a.transposed();
  auto B = (opb == Op::None) ? b : b.transposed();
  Matrix<T> c = c0;
  for (index_t i = 0; i < A.rows(); ++i)
    for (index_t j = 0; j < B.cols(); ++j) {
      double s = 0;
      for (index_t k = 0; k < A.cols(); ++k)
        s += double(A(i, k)) * double(B(k, j));
      c(i, j) = alpha * T(s) + beta * c0(i, j);
    }
  return c;
}

class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(GemmShapes, MatchesNaiveAllTransposeCombos) {
  const auto [m, n, k] = GetParam();
  for (Op opa : {Op::None, Op::Trans}) {
    for (Op opb : {Op::None, Op::Trans}) {
      Matrix<double> a = (opa == Op::None)
                             ? Matrix<double>::random_normal(m, k, 1)
                             : Matrix<double>::random_normal(k, m, 1);
      Matrix<double> b = (opb == Op::None)
                             ? Matrix<double>::random_normal(k, n, 2)
                             : Matrix<double>::random_normal(n, k, 2);
      Matrix<double> c = Matrix<double>::random_normal(m, n, 3);
      Matrix<double> expect = naive_gemm(opa, opb, 1.3, a, b, -0.7, c);
      gemm(opa, opb, 1.3, a, b, -0.7, c);
      EXPECT_LT(diff_fro(c, expect), 1e-9 * (1.0 + norm_fro(expect)))
          << "opa=" << int(opa) << " opb=" << int(opb);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{3, 5, 2},
                      std::tuple{17, 13, 9}, std::tuple{64, 64, 64},
                      std::tuple{65, 63, 66}, std::tuple{257, 130, 241},
                      std::tuple{1, 300, 7}, std::tuple{300, 1, 7}));

TEST(Gemm, AlphaZeroScalesOnly) {
  Matrix<double> a = Matrix<double>::random_normal(8, 8, 1);
  Matrix<double> b = Matrix<double>::random_normal(8, 8, 2);
  Matrix<double> c(8, 8, 2.0);
  gemm(Op::None, Op::None, 0.0, a, b, 0.5, c);
  EXPECT_DOUBLE_EQ(c(3, 3), 1.0);
}

TEST(Gemm, DimensionMismatchThrows) {
  Matrix<double> a(4, 3);
  Matrix<double> b(4, 4);  // inner mismatch
  Matrix<double> c(4, 4);
  EXPECT_THROW(gemm(Op::None, Op::None, 1.0, a, b, 0.0, c),
               std::invalid_argument);
}

TEST(Gemm, FloatPath) {
  Matrix<float> a = Matrix<float>::random_normal(33, 21, 5);
  Matrix<float> b = Matrix<float>::random_normal(21, 19, 6);
  Matrix<float> c(33, 19);
  gemm(Op::None, Op::None, 1.0f, a, b, 0.0f, c);
  Matrix<float> expect = naive_gemm(Op::None, Op::None, 1.0f, a, b, 0.0f,
                                    Matrix<float>(33, 19));
  EXPECT_LT(diff_fro(c, expect), 1e-3);
}

// --------------------------------------------------------------- GEMV ----

TEST(Gemv, MatchesGemm) {
  Matrix<double> a = Matrix<double>::random_normal(9, 7, 11);
  Matrix<double> x = Matrix<double>::random_normal(7, 1, 12);
  Matrix<double> y(9, 1);
  gemv(Op::None, 1.0, a, x.data(), 0.0, y.data());
  Matrix<double> expect = matmul(a, x);
  EXPECT_LT(diff_fro(y, expect), 1e-12);

  Matrix<double> xt = Matrix<double>::random_normal(9, 1, 13);
  Matrix<double> yt(7, 1);
  gemv(Op::Trans, 1.0, a, xt.data(), 0.0, yt.data());
  Matrix<double> expect_t(7, 1);
  gemm(Op::Trans, Op::None, 1.0, a, xt, 0.0, expect_t);
  EXPECT_LT(diff_fro(yt, expect_t), 1e-12);
}

// --------------------------------------------------------------- TRSM ----

class TrsmCombos : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(TrsmCombos, SolvesAgainstGemm) {
  const auto [upper, trans] = GetParam();
  const index_t n = 24;
  // Well-conditioned triangular factor: diag dominant.
  Matrix<double> a = Matrix<double>::random_normal(n, n, 21);
  for (index_t i = 0; i < n; ++i) a(i, i) = 5.0 + std::abs(a(i, i));
  // Zero out the unused triangle so we can verify with a plain gemm.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      if (upper ? (i > j) : (i < j)) a(i, j) = 0.0;

  Matrix<double> x_true = Matrix<double>::random_normal(n, 5, 22);
  Matrix<double> b(n, 5);
  gemm(trans ? Op::Trans : Op::None, Op::None, 1.0, a, x_true, 0.0, b);
  trsm(upper, trans ? Op::Trans : Op::None, false, 1.0, a, b);
  EXPECT_LT(diff_fro(b, x_true), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(AllCombos, TrsmCombos,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(Trsm, AlphaScaling) {
  Matrix<double> a = Matrix<double>::identity(3);
  Matrix<double> b(3, 1, 2.0);
  trsm(true, Op::None, false, 0.5, a, b);
  EXPECT_DOUBLE_EQ(b(0, 0), 1.0);
}

TEST(Trsm, BlockedPathAllTriangleOpDiagCombinations) {
  // n = 200 engages the blocked right-looking path (scalar diagonal
  // blocks + GEMM panel downdates, threshold n > 96); every combination
  // of {upper, lower} x {Op::None, Op::Trans} x {unit, non-unit} must
  // solve a well-conditioned triangular system back to the known x.
  const index_t n = 200;
  const index_t rhs = 3;
  // Small off-diagonal entries keep even the unit-diagonal triangles
  // well conditioned (unit triangular solves amplify O(1) off-diagonals
  // exponentially in n, which would measure conditioning, not the code).
  Matrix<double> a = Matrix<double>::random_normal(n, n, 401);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) a(i, j) *= 0.01;
  for (index_t i = 0; i < n; ++i) a(i, i) = 2.0 + a(i, i);
  const Matrix<double> x_true = Matrix<double>::random_normal(n, rhs, 402);

  for (const bool upper : {false, true}) {
    for (const Op op : {Op::None, Op::Trans}) {
      for (const bool unit : {false, true}) {
        // Materialise op(tri(A)) densely to build the right-hand side.
        Matrix<double> t(n, n);
        for (index_t j = 0; j < n; ++j)
          for (index_t i = 0; i < n; ++i) {
            const bool keep = upper ? (i <= j) : (i >= j);
            t(i, j) = keep ? a(i, j) : 0.0;
            if (unit && i == j) t(i, j) = 1.0;
          }
        Matrix<double> b(n, rhs);
        gemm(op, Op::None, 1.0, t, x_true, 0.0, b);
        trsm(upper, op, unit, 1.0, a, b);
        EXPECT_LT(diff_fro(b, x_true), 1e-10 * (1 + norm_fro(x_true)))
            << "upper=" << upper << " trans=" << (op == Op::Trans)
            << " unit=" << unit;
      }
    }
  }
}

// ----------------------------------------------------------- Cholesky ----

TEST(Cholesky, FactorizesAndSolves) {
  const index_t n = 40;
  Matrix<double> g = Matrix<double>::random_normal(n, n, 31);
  Matrix<double> spd(n, n);
  gemm(Op::None, Op::Trans, 1.0, g, g, 0.0, spd);
  for (index_t i = 0; i < n; ++i) spd(i, i) += double(n);

  Matrix<double> l = spd;
  ASSERT_TRUE(potrf_lower(l));
  // L L^T == spd (lower triangle check via reconstruction).
  Matrix<double> ll(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < j; ++i) l(i, j) = 0.0;  // clear upper
  gemm(Op::None, Op::Trans, 1.0, l, l, 0.0, ll);
  EXPECT_LT(diff_fro(ll, spd), 1e-8 * norm_fro(spd));

  Matrix<double> x_true = Matrix<double>::random_normal(n, 3, 32);
  Matrix<double> b(n, 3);
  gemm(Op::None, Op::None, 1.0, spd, x_true, 0.0, b);
  chol_solve(l, b);
  EXPECT_LT(diff_fro(b, x_true), 1e-8);
}

TEST(Cholesky, BlockedPathFactorizesLargeSystems) {
  // n = 300 crosses the right-looking panel boundary several times (block
  // 96), so panel factorization, the L21 solve, and the gemm_panel
  // trailing downdates are all exercised — against a reconstruction
  // check, and a solve against a known solution.
  const index_t n = 300;
  Matrix<double> g = Matrix<double>::random_normal(n, n, 33);
  Matrix<double> spd(n, n);
  gemm(Op::None, Op::Trans, 1.0, g, g, 0.0, spd);
  for (index_t i = 0; i < n; ++i) spd(i, i) += double(n);

  Matrix<double> l = spd;
  ASSERT_TRUE(potrf_lower(l));
  // Documented contract: the strict upper triangle is never touched —
  // the blocked trailing downdates must not leak into the stripe wedges.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < j; ++i)
      ASSERT_EQ(l(i, j), spd(i, j)) << i << "," << j;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < j; ++i) l(i, j) = 0.0;  // clear upper
  Matrix<double> ll(n, n);
  gemm(Op::None, Op::Trans, 1.0, l, l, 0.0, ll);
  EXPECT_LT(diff_fro(ll, spd), 1e-10 * norm_fro(spd));

  Matrix<double> x_true = Matrix<double>::random_normal(n, 2, 34);
  Matrix<double> b(n, 2);
  gemm(Op::None, Op::None, 1.0, spd, x_true, 0.0, b);
  chol_solve(l, b);
  EXPECT_LT(diff_fro(b, x_true), 1e-7);
}

TEST(Cholesky, BlockedPathRejectsIndefiniteTrailingBlock) {
  // Indefiniteness hiding in a late panel must still be detected.
  const index_t n = 260;
  Matrix<double> g = Matrix<double>::random_normal(n, n, 35);
  Matrix<double> spd(n, n);
  gemm(Op::None, Op::Trans, 1.0, g, g, 0.0, spd);
  for (index_t i = 0; i < n; ++i) spd(i, i) += double(n);
  spd(n - 3, n - 3) = -spd(n - 3, n - 3);
  EXPECT_FALSE(potrf_lower(spd));
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix<double> a = Matrix<double>::identity(3);
  a(2, 2) = -1.0;
  EXPECT_FALSE(potrf_lower(a));
}

TEST(Cholesky, SpdInverse) {
  const index_t n = 30;
  Matrix<double> g = Matrix<double>::random_normal(n, n, 41);
  Matrix<double> spd(n, n);
  gemm(Op::None, Op::Trans, 1.0, g, g, 0.0, spd);
  for (index_t i = 0; i < n; ++i) spd(i, i) += double(n);
  Matrix<double> inv = spd_inverse(spd);
  Matrix<double> prod = matmul(spd, inv);
  EXPECT_LT(diff_fro(prod, Matrix<double>::identity(n)), 1e-8);
  // Symmetry of the inverse.
  EXPECT_LT(diff_fro(inv, inv.transposed()), 1e-12 * norm_fro(inv));
}

// --------------------------------------------------- Householder QR ----

/// Materialises Q from a geqrf factorization by applying it to I.
template <typename T>
Matrix<T> materialize_q(const Matrix<T>& qr, const std::vector<T>& tau) {
  Matrix<T> q = Matrix<T>::identity(qr.rows());
  ormqr_left(Op::None, qr, tau, q);
  return q;
}

TEST(Geqrf, ReconstructsTallMatrixAndQIsOrthogonal) {
  // Sizes straddle the compact-WY panel width (32): unblocked, exactly
  // one panel, and multi-panel paths all run.
  for (const index_t cols : {index_t(5), index_t(32), index_t(80)}) {
    const index_t m = 2 * cols + 7;
    Matrix<double> a = Matrix<double>::random_normal(m, cols, 91);
    Matrix<double> qr = a;
    std::vector<double> tau;
    geqrf(qr, tau);
    ASSERT_EQ(index_t(tau.size()), cols);

    const Matrix<double> q = materialize_q(qr, tau);
    // ‖QᵀQ − I‖ <= m·ε — the orthogonality contract the engine's λ-retune
    // rests on (λI must commute through Q exactly up to round-off).
    Matrix<double> qtq(m, m);
    gemm(Op::Trans, Op::None, 1.0, q, q, 0.0, qtq);
    for (index_t i = 0; i < m; ++i) qtq(i, i) -= 1.0;
    EXPECT_LE(norm_fro(qtq),
              double(m) * std::numeric_limits<double>::epsilon() * 8)
        << "cols " << cols;

    // Q R == A.
    Matrix<double> r(m, cols);
    for (index_t j = 0; j < cols; ++j)
      for (index_t i = 0; i <= j; ++i) r(i, j) = qr(i, j);
    EXPECT_LT(diff_fro(matmul(q, r), a), 1e-12 * (1 + norm_fro(a)))
        << "cols " << cols;
  }
}

TEST(Geqrf, QrExtractRMatchesUpperTriangle) {
  const index_t m = 50, n = 20;
  Matrix<double> qr = Matrix<double>::random_normal(m, n, 92);
  std::vector<double> tau;
  geqrf(qr, tau);
  const Matrix<double> r = qr_extract_r(qr);
  ASSERT_EQ(r.rows(), n);
  ASSERT_EQ(r.cols(), n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      EXPECT_DOUBLE_EQ(r(i, j), i <= j ? qr(i, j) : 0.0);
}

TEST(Ormqr, TransThenNoneRoundTripsAndShiftCommutes) {
  const index_t m = 90, n = 40;  // multi-panel reflector set
  Matrix<double> qr = Matrix<double>::random_normal(m, n, 93);
  std::vector<double> tau;
  geqrf(qr, tau);

  // Qᵀ then Q round-trips a block of vectors.
  const Matrix<double> c0 = Matrix<double>::random_normal(m, 6, 94);
  Matrix<double> c = c0;
  ormqr_left(Op::Trans, qr, tau, c);
  ormqr_left(Op::None, qr, tau, c);
  EXPECT_LT(diff_fro(c, c0), 1e-12 * norm_fro(c0));

  // Qᵀ(A + λI)Q == QᵀAQ + λI — THE identity the orthogonal-ULV retune
  // rests on, checked on a dense symmetric block.
  Matrix<double> g = Matrix<double>::random_normal(m, m, 95);
  Matrix<double> sym(m, m);
  gemm(Op::None, Op::Trans, 1.0, g, g, 0.0, sym);
  const double lambda = 0.37;
  auto rotate = [&](Matrix<double> x) {
    ormqr_left(Op::Trans, qr, tau, x);
    Matrix<double> xt = x.transposed();
    ormqr_left(Op::Trans, qr, tau, xt);
    return xt;
  };
  Matrix<double> shifted = sym;
  for (index_t i = 0; i < m; ++i) shifted(i, i) += lambda;
  Matrix<double> lhs = rotate(shifted);   // Qᵀ(A+λI)Q
  Matrix<double> rhs = rotate(sym);       // QᵀAQ + λI
  for (index_t i = 0; i < m; ++i) rhs(i, i) += lambda;
  EXPECT_LT(diff_fro(lhs, rhs), 1e-11 * norm_fro(sym));
}

TEST(Ormqr, ZeroesBasisBelowR) {
  // Qᵀ V = [R; 0]: the rotated basis vanishes below its rank — the
  // structural fact that closes the eliminated rows over themselves.
  const index_t m = 70, n = 24;
  Matrix<double> v = Matrix<double>::random_normal(m, n, 96);
  Matrix<double> qr = v;
  std::vector<double> tau;
  geqrf(qr, tau);
  ormqr_left(Op::Trans, qr, tau, v);
  double below = 0;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = n; i < m; ++i) below = std::max(below, std::abs(v(i, j)));
  EXPECT_LT(below, 1e-13);
}

TEST(Geqrf, FloatPath) {
  const index_t m = 60, n = 33;
  Matrix<float> a = Matrix<float>::random_normal(m, n, 97);
  Matrix<float> qr = a;
  std::vector<float> tau;
  geqrf(qr, tau);
  const Matrix<float> q = materialize_q(qr, tau);
  Matrix<float> r(m, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= j; ++i) r(i, j) = qr(i, j);
  EXPECT_LT(diff_fro(matmul(q, r), a), 1e-4 * (1 + norm_fro(a)));
}

TEST(Geqrf, RejectsWideMatrices) {
  Matrix<double> a(3, 5);
  std::vector<double> tau;
  EXPECT_THROW(geqrf(a, tau), std::invalid_argument);
}

// ------------------------------------------- cached compact-WY (geqrt) ----

/// Exact bitwise equality of two same-shape matrices (no tolerance).
template <typename T>
::testing::AssertionResult bitwise_equal(const Matrix<T>& a,
                                         const Matrix<T>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols())
    return ::testing::AssertionFailure() << "shape mismatch";
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i)
      if (std::memcmp(&a(i, j), &b(i, j), sizeof(T)) != 0)
        return ::testing::AssertionFailure()
               << "first difference at (" << i << ", " << j << "): " << a(i, j)
               << " vs " << b(i, j);
  return ::testing::AssertionSuccess();
}

template <typename T>
void check_cached_matches_rebuilt(index_t m, index_t k, index_t ncols,
                                  std::uint64_t seed) {
  Matrix<T> a = Matrix<T>::random_normal(m, k, seed);
  Matrix<T> rebuilt_qr = a;
  std::vector<T> tau;
  geqrf(rebuilt_qr, tau);
  const QrFactors<T> qf = qr_factorize(std::move(a));

  // The cached factorization stores the same reflectors geqrf produced.
  ASSERT_TRUE(bitwise_equal(qf.vr, rebuilt_qr));

  for (Op op : {Op::Trans, Op::None}) {
    const Matrix<T> c0 = Matrix<T>::random_normal(m, ncols, seed + 1);
    Matrix<T> c_rebuilt = c0;
    ormqr_left(op, rebuilt_qr, tau, c_rebuilt);
    Matrix<T> c_cached = c0;
    larft_calls_reset();
    ormqr_left(op, qf, c_cached);
    // Zero larft rebuilds on the cached hot path — the defect this PR fixes.
    EXPECT_EQ(larft_calls(), 0u) << "m=" << m << " k=" << k;
    // Both overloads funnel into the same larfb kernel, so the cached
    // result is bitwise identical to the rebuild-per-call result.
    EXPECT_TRUE(bitwise_equal(c_cached, c_rebuilt))
        << "op=" << int(op) << " m=" << m << " k=" << k << " ncols=" << ncols;
  }
}

TEST(Ormqr, CachedMatchesRebuiltBitwiseDouble) {
  // Shapes straddle the panel width 32: unblocked, one panel + tail,
  // multi-panel with non-multiple-of-nb tails; ncols=1 is the narrow-rhs
  // sweep case that motivated the cache.
  check_cached_matches_rebuilt<double>(70, 24, 1, 401);
  check_cached_matches_rebuilt<double>(90, 33, 5, 402);
  check_cached_matches_rebuilt<double>(120, 47, 1, 403);
  check_cached_matches_rebuilt<double>(150, 65, 8, 404);
}

TEST(Ormqr, CachedMatchesRebuiltBitwiseFloat) {
  check_cached_matches_rebuilt<float>(70, 24, 1, 411);
  check_cached_matches_rebuilt<float>(150, 65, 8, 412);
}

TEST(Ormqr, ForceRebuildFallbackMatchesCached) {
  // The qr_set_force_rebuild escape hatch routes the cached overload
  // through the rebuild path; results must stay bitwise identical and the
  // larft counter must show the rebuilds actually happened.
  const index_t m = 100, k = 40;
  const QrFactors<double> qf =
      qr_factorize(Matrix<double>::random_normal(m, k, 421));
  const Matrix<double> c0 = Matrix<double>::random_normal(m, 3, 422);

  Matrix<double> c_cached = c0;
  ormqr_left(Op::Trans, qf, c_cached);

  qr_set_force_rebuild(true);
  ASSERT_TRUE(qr_force_rebuild());
  Matrix<double> c_forced = c0;
  larft_calls_reset();
  ormqr_left(Op::Trans, qf, c_forced);
  EXPECT_GT(larft_calls(), 0u);
  qr_set_force_rebuild(false);

  EXPECT_TRUE(bitwise_equal(c_forced, c_cached));
}

TEST(Ormqr, FlopModelMatchesMeasuredExactly) {
  // ormqr_flops is an exact panel-loop model of the larfb work, so it must
  // equal the measured counter to the flop — not approximately. This is
  // the satellite fix for the old ~4mnk model that ignored panel shape.
  for (const auto& [m, k, ncols] :
       {std::tuple<index_t, index_t, index_t>{90, 33, 1},
        std::tuple<index_t, index_t, index_t>{150, 65, 8},
        std::tuple<index_t, index_t, index_t>{64, 32, 4}}) {
    const QrFactors<double> qf =
        qr_factorize(Matrix<double>::random_normal(m, k, 431));
    Matrix<double> c = Matrix<double>::random_normal(m, ncols, 432);
    ormqr_measured_flops_reset();
    ormqr_left(Op::Trans, qf, c);
    ormqr_left(Op::None, qf, c);
    ASSERT_EQ(ormqr_measured_flops(), 2 * ormqr_flops(m, k, ncols))
        << "m=" << m << " k=" << k << " ncols=" << ncols;
  }
}

TEST(Ormqr, QrFactorsExtractRAndSizeAccounting) {
  const index_t m = 90, k = 40;
  Matrix<double> a = Matrix<double>::random_normal(m, k, 441);
  Matrix<double> qr = a;
  std::vector<double> tau;
  geqrf(qr, tau);
  const QrFactors<double> qf = qr_factorize(std::move(a));
  // R extraction agrees between the raw and cached forms.
  EXPECT_TRUE(bitwise_equal(qr_extract_r(qf), qr_extract_r(qr)));
  // size() covers vr + tau + every cached V/T panel (memory accounting
  // used by FactorizationStats).
  std::uint64_t expect = std::uint64_t(qf.vr.size()) + qf.tau.size();
  for (const auto& v : qf.v) expect += std::uint64_t(v.size());
  for (const auto& t : qf.t) expect += std::uint64_t(t.size());
  EXPECT_EQ(qf.size(), expect);
  EXPECT_FALSE(qf.empty());
  EXPECT_EQ(qf.m, m);
  EXPECT_EQ(qf.k, k);
}

// ----------------------------------------------------------------- LU ----

TEST(Lu, FactorizesAndSolvesGeneralSystem) {
  const index_t n = 32;
  Matrix<double> a = Matrix<double>::random_normal(n, n, 81);
  Matrix<double> x_true = Matrix<double>::random_normal(n, 4, 82);
  Matrix<double> b(n, 4);
  gemm(Op::None, Op::None, 1.0, a, x_true, 0.0, b);

  Matrix<double> lu = a;
  std::vector<index_t> piv;
  ASSERT_TRUE(getrf(lu, piv));
  getrs(lu, piv, b);
  EXPECT_LT(diff_fro(b, x_true), 1e-9 * (1 + norm_fro(x_true)));
}

TEST(Lu, BlockedPathFactorizesLargeSystems) {
  // n = 200 crosses the panel boundary (block 64): pivoted panel LU, the
  // U12 triangular stripe, and the gemm_panel trailing downdate all run.
  const index_t n = 200;
  Matrix<double> a = Matrix<double>::random_normal(n, n, 83);
  Matrix<double> x_true = Matrix<double>::random_normal(n, 3, 84);
  Matrix<double> b(n, 3);
  gemm(Op::None, Op::None, 1.0, a, x_true, 0.0, b);

  Matrix<double> lu = a;
  std::vector<index_t> piv;
  ASSERT_TRUE(getrf(lu, piv));
  getrs(lu, piv, b);
  EXPECT_LT(diff_fro(b, x_true), 1e-7 * (1 + norm_fro(x_true)));

  // P A = L U reconstruction: apply the recorded row swaps to A and
  // compare against the unit-lower times upper product.
  Matrix<double> pa = a;
  for (index_t k = 0; k < n; ++k) {
    const index_t p = piv[std::size_t(k)];
    if (p != k)
      for (index_t j = 0; j < n; ++j) std::swap(pa(k, j), pa(p, j));
  }
  Matrix<double> l = Matrix<double>::identity(n);
  Matrix<double> u(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j + 1; i < n; ++i) l(i, j) = lu(i, j);
    for (index_t i = 0; i <= j; ++i) u(i, j) = lu(i, j);
  }
  EXPECT_LT(diff_fro(matmul(l, u), pa), 1e-10 * norm_fro(pa));
}

TEST(Lu, SolvesIndefiniteSymmetricSystem) {
  // The HODLR capacitance matrices are symmetric indefinite: M + W^T X
  // with M = [[0, I], [I, 0]]. Check LU handles that structure.
  const index_t r = 6;
  Matrix<double> m(2 * r, 2 * r);
  for (index_t j = 0; j < r; ++j) {
    m(j, r + j) = 1.0;
    m(r + j, j) = 1.0;
  }
  Matrix<double> g = Matrix<double>::random_normal(2 * r, 2 * r, 83);
  Matrix<double> sym(2 * r, 2 * r);
  gemm(Op::None, Op::Trans, 0.1, g, g, 0.0, sym);
  for (index_t j = 0; j < 2 * r; ++j)
    for (index_t i = 0; i < 2 * r; ++i) m(i, j) += sym(i, j);

  Matrix<double> x_true = Matrix<double>::random_normal(2 * r, 2, 84);
  Matrix<double> b(2 * r, 2);
  gemm(Op::None, Op::None, 1.0, m, x_true, 0.0, b);
  std::vector<index_t> piv;
  ASSERT_TRUE(getrf(m, piv));
  getrs(m, piv, b);
  EXPECT_LT(diff_fro(b, x_true), 1e-9);
}

TEST(Lu, DetectsSingularity) {
  Matrix<double> a(3, 3);  // all zeros
  std::vector<index_t> piv;
  EXPECT_FALSE(getrf(a, piv));
}

// --------------------------------------------------- Bunch-Kaufman LDLᵀ ----

namespace {

/// Random symmetric matrix with eigenvalues spread across both signs.
Matrix<double> random_indefinite(index_t n, std::uint64_t seed) {
  Matrix<double> g = Matrix<double>::random_normal(n, n, seed);
  Matrix<double> a(n, n);
  gemm(Op::None, Op::Trans, 1.0, g, g, 0.0, a);
  // Shift by a multiple of the identity to push part of the spectrum
  // negative; Gram eigenvalues concentrate well below n for random G.
  for (index_t i = 0; i < n; ++i) a(i, i) -= double(n) / 2.0;
  return a;
}

}  // namespace

TEST(Ldlt, FactorizesAndSolvesIndefiniteSystem) {
  const index_t n = 48;
  Matrix<double> a = random_indefinite(n, 301);
  Matrix<double> x_true = Matrix<double>::random_normal(n, 3, 302);
  Matrix<double> b(n, 3);
  gemm(Op::None, Op::None, 1.0, a, x_true, 0.0, b);

  Matrix<double> f = a;
  std::vector<index_t> ipiv;
  ASSERT_TRUE(sytrf_lower(f, ipiv));
  sytrs_lower(f, ipiv, b);
  EXPECT_LT(diff_fro(b, x_true), 1e-9 * (1 + norm_fro(x_true)));

  // Cholesky must refuse the same matrix (it is genuinely indefinite).
  Matrix<double> c = a;
  EXPECT_FALSE(potrf_lower(c));
}

TEST(Ldlt, MatchesCholeskyOnSpdInput) {
  // On an SPD matrix LDLᵀ and Cholesky agree on the determinant and the
  // solve; the inertia must report zero negative eigenvalues.
  const index_t n = 24;
  Matrix<double> g = Matrix<double>::random_normal(n, n, 305);
  Matrix<double> a(n, n);
  gemm(Op::None, Op::Trans, 1.0, g, g, 0.0, a);
  for (index_t i = 0; i < n; ++i) a(i, i) += double(n);

  Matrix<double> c = a;
  ASSERT_TRUE(potrf_lower(c));
  double ld_chol = 0;
  for (index_t i = 0; i < n; ++i) ld_chol += 2.0 * std::log(c(i, i));

  Matrix<double> f = a;
  std::vector<index_t> ipiv;
  ASSERT_TRUE(sytrf_lower(f, ipiv));
  const LdltInertia inertia = ldlt_inertia(f, ipiv);
  EXPECT_EQ(inertia.negative, 0);
  EXPECT_EQ(inertia.zero, 0);
  EXPECT_EQ(inertia.sign, 1);
  EXPECT_NEAR(inertia.log_abs_det, ld_chol, 1e-9 * std::abs(ld_chol));
}

TEST(Ldlt, InertiaCountsNegativeEigenvaluesOfKnownSpectrum) {
  // D = diag(3, -2, 5, -1, -4, 6) conjugated by an orthogonal-ish random
  // basis keeps its inertia (Sylvester's law) and its determinant.
  const index_t n = 6;
  const double eig[] = {3, -2, 5, -1, -4, 6};
  Matrix<double> q = Matrix<double>::random_normal(n, n, 307);
  // Gram-Schmidt to get an exact orthogonal basis.
  for (index_t j = 0; j < n; ++j) {
    for (index_t k = 0; k < j; ++k) {
      const double proj = dot(n, q.col(k), q.col(j));
      axpy(n, -proj, q.col(k), q.col(j));
    }
    const double nrm = nrm2(n, q.col(j));
    for (index_t i = 0; i < n; ++i) q(i, j) /= nrm;
  }
  Matrix<double> qd = q;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) qd(i, j) *= eig[j];
  Matrix<double> a(n, n);
  gemm(Op::None, Op::Trans, 1.0, qd, q, 0.0, a);
  for (index_t j = 0; j < n; ++j)  // kill round-off asymmetry
    for (index_t i = 0; i < j; ++i) a(j, i) = a(i, j);

  std::vector<index_t> ipiv;
  ASSERT_TRUE(sytrf_lower(a, ipiv));
  const LdltInertia inertia = ldlt_inertia(a, ipiv);
  EXPECT_EQ(inertia.negative, 3);
  EXPECT_EQ(inertia.zero, 0);
  EXPECT_EQ(inertia.sign, -1);  // product of signs: (-)(-)(-) = -
  double ld = 0;
  for (double e : eig) ld += std::log(std::abs(e));
  EXPECT_NEAR(inertia.log_abs_det, ld, 1e-10 * std::abs(ld) + 1e-10);
}

TEST(Ldlt, DetectsExactSingularity) {
  Matrix<double> a(4, 4);  // all zeros: every pivot column is zero
  std::vector<index_t> ipiv;
  EXPECT_FALSE(sytrf_lower(a, ipiv));
}

TEST(Ldlt, FloatPath) {
  const index_t n = 20;
  Matrix<float> a(n, n);
  {
    Matrix<double> ad = random_indefinite(n, 311);
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < n; ++i) a(i, j) = float(ad(i, j));
  }
  Matrix<float> x_true = Matrix<float>::random_normal(n, 2, 312);
  Matrix<float> b(n, 2);
  gemm(Op::None, Op::None, 1.0f, a, x_true, 0.0f, b);
  std::vector<index_t> ipiv;
  ASSERT_TRUE(sytrf_lower(a, ipiv));
  sytrs_lower(a, ipiv, b);
  EXPECT_LT(diff_fro(b, x_true), 1e-3 * (1 + norm_fro(x_true)));
}

TEST(Ldlt, BlockedPathFactorizesLargeSystems) {
  // n > 128 drives the LASYF-style blocked panels (kBlock = 64); odd sizes
  // exercise kb < nb panel endings and the unblocked tail. The inertia's
  // log|det| is cross-checked against LU, which validates D globally —
  // a panel mis-downdate would corrupt late pivots and fail this.
  for (const index_t n : {index_t(193), index_t(300)}) {
    Matrix<double> a = random_indefinite(n, 321);
    Matrix<double> x_true = Matrix<double>::random_normal(n, 3, 322);
    Matrix<double> b(n, 3);
    gemm(Op::None, Op::None, 1.0, a, x_true, 0.0, b);

    Matrix<double> f = a;
    std::vector<index_t> ipiv;
    ASSERT_TRUE(sytrf_lower(f, ipiv)) << "n " << n;
    sytrs_lower(f, ipiv, b);
    EXPECT_LT(diff_fro(b, x_true), 1e-8 * (1 + norm_fro(x_true))) << "n " << n;

    double ld_lu = 0;
    {
      Matrix<double> lu = a;
      std::vector<index_t> piv;
      ASSERT_TRUE(getrf(lu, piv));
      for (index_t i = 0; i < n; ++i) ld_lu += std::log(std::abs(lu(i, i)));
    }
    const LdltInertia inertia = ldlt_inertia(f, ipiv);
    EXPECT_EQ(inertia.zero, 0) << "n " << n;
    EXPECT_NEAR(inertia.log_abs_det, ld_lu, 1e-8 * std::abs(ld_lu))
        << "n " << n;
  }
}

// -------------------------------------------------------------- GEQP3 ----

TEST(Geqp3, DiagonalOfRIsNonIncreasing) {
  Matrix<double> a = Matrix<double>::random_normal(50, 30, 51);
  auto qr = geqp3(a, 0.0, 0);
  for (index_t k = 1; k < qr.rank; ++k)
    EXPECT_LE(std::abs(qr.r(k, k)), std::abs(qr.r(k - 1, k - 1)) + 1e-12);
}

TEST(Geqp3, PivotsFormPermutation) {
  Matrix<double> a = Matrix<double>::random_normal(20, 20, 52);
  auto qr = geqp3(a, 0.0, 0);
  std::vector<bool> seen(20, false);
  for (index_t j : qr.jpvt) {
    ASSERT_GE(j, 0);
    ASSERT_LT(j, 20);
    EXPECT_FALSE(seen[std::size_t(j)]);
    seen[std::size_t(j)] = true;
  }
}

TEST(Geqp3, DetectsExactRank) {
  // A = B C with inner dimension 7 => rank exactly 7.
  Matrix<double> b = Matrix<double>::random_normal(40, 7, 53);
  Matrix<double> c = Matrix<double>::random_normal(7, 25, 54);
  Matrix<double> a = matmul(b, c);
  auto qr = geqp3(a, 1e-10, 0);
  EXPECT_EQ(qr.rank, 7);
}

TEST(Geqp3, RespectsMaxRank) {
  Matrix<double> a = Matrix<double>::random_normal(30, 30, 55);
  auto qr = geqp3(a, 0.0, 5);
  EXPECT_EQ(qr.rank, 5);
}

TEST(Geqp3, PreservesColumnNormsInR) {
  // ||A p_j||_2 == ||R(:, j)||_2 for every pivoted column (Q orthogonal).
  Matrix<double> a = Matrix<double>::random_normal(25, 10, 56);
  auto qr = geqp3(a, 0.0, 0);
  for (index_t j = 0; j < 10; ++j) {
    const index_t orig = qr.jpvt[std::size_t(j)];
    const double na = nrm2(25, a.col(orig));
    double nr = 0;
    for (index_t i = 0; i < qr.r.rows(); ++i)
      nr += double(qr.r(i, j)) * double(qr.r(i, j));
    EXPECT_NEAR(na, std::sqrt(nr), 1e-9);
  }
}

// The blocked geqp3 folds reflectors into one trailing update per panel
// of 32 columns; the cases below straddle that panel, stop inside it, and
// hit the norm-recompute and degenerate paths.

/// A·P restricted to the first `r` pivot columns satisfies
/// (AP)(:, 0:r)ᵀ (AP) = R(0:r, 0:r)ᵀ R(0:r, :), whatever the trailing rows
/// of R hold — checks pivots, reflectors and R12 without forming Q.
void expect_leading_gram(const Matrix<double>& a, const PivotedQr<double>& qr,
                         index_t r, double tol) {
  const index_t m = a.rows(), n = a.cols();
  std::vector<index_t> all_rows(std::size_t(m), 0);
  std::iota(all_rows.begin(), all_rows.end(), index_t(0));
  const Matrix<double> ap = a.gather(all_rows, qr.jpvt);
  const double scale = norm_fro(a) * norm_fro(a);
  for (index_t i = 0; i < r; ++i)
    for (index_t j = 0; j < n; ++j) {
      const double g = dot(m, ap.col(i), ap.col(j));
      double rr = 0;
      for (index_t t = 0; t <= i; ++t) rr += qr.r(t, i) * qr.r(t, j);
      ASSERT_NEAR(g, rr, tol * scale) << "(" << i << ", " << j << ")";
    }
}

/// ||A p_j|| == ||R(:, j)|| to relative `tol` for every column j (Q
/// orthogonal, nothing below the extracted trapezoid).
void expect_column_norms(const Matrix<double>& a,
                         const PivotedQr<double>& qr, double tol) {
  for (index_t j = 0; j < a.cols(); ++j) {
    const index_t orig = qr.jpvt[std::size_t(j)];
    double nr = 0;
    for (index_t i = 0; i < qr.r.rows(); ++i) nr += qr.r(i, j) * qr.r(i, j);
    const double na = nrm2(a.rows(), a.col(orig));
    EXPECT_NEAR(na, std::sqrt(nr), tol * na) << "column " << j;
  }
}

void expect_permutation(const std::vector<index_t>& p, index_t n) {
  ASSERT_EQ(index_t(p.size()), n);
  std::vector<bool> seen(std::size_t(n), false);
  for (index_t j : p) {
    ASSERT_GE(j, 0);
    ASSERT_LT(j, n);
    EXPECT_FALSE(seen[std::size_t(j)]);
    seen[std::size_t(j)] = true;
  }
}

TEST(Geqp3, WidthsAroundThePanel) {
  for (const index_t m : {index_t(70), index_t(200)})
    for (const index_t n : {index_t(31), index_t(32), index_t(33),
                            index_t(97)}) {
      SCOPED_TRACE(::testing::Message() << m << "x" << n);
      const Matrix<double> a =
          Matrix<double>::random_normal(m, n, std::uint64_t(700 + m + n));
      const auto qr = geqp3(a, 0.0, 0);
      expect_permutation(qr.jpvt, n);
      EXPECT_EQ(qr.rank, std::min(m, n));
      for (index_t k = 1; k < qr.rank; ++k)
        EXPECT_LE(std::abs(qr.r(k, k)), std::abs(qr.r(k - 1, k - 1)) + 1e-12);
      expect_leading_gram(a, qr, qr.rank, 1e-13);
      if (m >= n) expect_column_norms(a, qr, 1e-9);
    }
}

TEST(Geqp3, MaxRankStopsMidPanel) {
  // Wide with m = max_rank + 1: every column of R then spans all m rows,
  // so the norm identity holds for every column only if the pending panel
  // update reached the trailing row before R was extracted.
  const index_t m = 20, n = 60;
  const Matrix<double> a = Matrix<double>::random_normal(m, n, 711);
  const auto qr = geqp3(a, 0.0, m - 1);
  ASSERT_EQ(qr.rank, m - 1);
  expect_permutation(qr.jpvt, n);
  expect_column_norms(a, qr, 1e-9);
  expect_leading_gram(a, qr, qr.rank, 1e-13);
  // Stopping agrees with the uncapped factorization up to the stop.
  const auto full = geqp3(a, 0.0, 0);
  for (index_t k = 0; k < qr.rank; ++k) {
    EXPECT_EQ(qr.jpvt[std::size_t(k)], full.jpvt[std::size_t(k)]);
    EXPECT_NEAR(qr.r(k, k), full.r(k, k), 1e-12);
  }
}

TEST(Geqp3, ToleranceStopsMidPanel) {
  // 20 rows: 19 columns of size 1 and 26 of size 1e-8. The tolerance stops
  // at 19, inside the first panel, and no norm has cancelled enough to end
  // the panel early, so the stop finds the panel's update still pending.
  // Row 19 of R must then hold the updated trailing row; left stale it
  // keeps A's own entries and breaks the norm identity of the small
  // columns.
  const index_t m = 20, n = 45;
  Matrix<double> a = Matrix<double>::random_normal(m, n, 712);
  for (index_t j = m - 1; j < n; ++j)
    for (index_t i = 0; i < m; ++i) a(i, j) *= 1e-8;
  const auto qr = geqp3(a, 1e-6, 0);
  ASSERT_EQ(qr.rank, m - 1);
  expect_permutation(qr.jpvt, n);
  expect_column_norms(a, qr, 1e-9);
  expect_leading_gram(a, qr, qr.rank, 1e-13);
  // The next diagonal, the ID's error estimate, is a small column's.
  EXPECT_LT(std::abs(qr.r(m - 1, m - 1)), 1e-6 * std::abs(qr.r(0, 0)));
  EXPECT_GT(std::abs(qr.r(m - 1, m - 1)), 1e-10 * std::abs(qr.r(0, 0)));
}

TEST(Geqp3, TallToleranceStopMatchesTheId) {
  // Tall, geometric decay: the tolerance stop lands inside the second
  // panel, and the ID built on it reconstructs A to the tolerance.
  const index_t m = 120, n = 80;
  const Matrix<double> u = Matrix<double>::random_normal(m, n, 713);
  const Matrix<double> v = Matrix<double>::random_normal(n, n, 714);
  Matrix<double> us = u;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) us(i, j) *= std::pow(0.7, double(j));
  const Matrix<double> a = matmul(us, v);
  const auto qr = geqp3(a, 1e-8, 0);
  EXPECT_GT(qr.rank, 32);
  EXPECT_LT(qr.rank, 64);
  expect_leading_gram(a, qr, qr.rank, 1e-13);
  const auto id = interp_decomp(a, 1e-8, 0);
  std::vector<index_t> all_rows(std::size_t(m), 0);
  std::iota(all_rows.begin(), all_rows.end(), index_t(0));
  const Matrix<double> rec = matmul(a.gather(all_rows, id.skel), id.p);
  EXPECT_LT(diff_fro(rec, a), 1e-6 * norm_fro(a));
}

TEST(Geqp3, NearCollinearColumnsRecomputeNorms) {
  // Columns u + 1e-7·noise: after the first reflector removes u, every
  // downdated norm has cancelled to ~1e-7 of its start, which forces the
  // exact recompute. Pivoting on stale norms would break the
  // non-increasing diagonal.
  const index_t m = 90, n = 40;
  const Matrix<double> u = Matrix<double>::random_normal(m, 1, 715);
  Matrix<double> a = Matrix<double>::random_normal(m, n, 716);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) a(i, j) = u(i, 0) + 1e-7 * a(i, j);
  const auto qr = geqp3(a, 0.0, 0);
  ASSERT_EQ(qr.rank, n);
  expect_permutation(qr.jpvt, n);
  for (index_t k = 1; k < n; ++k)
    EXPECT_LE(std::abs(qr.r(k, k)), std::abs(qr.r(k - 1, k - 1)) * (1 + 1e-6))
        << "k " << k;
  EXPECT_LT(std::abs(qr.r(1, 1)), 1e-5 * std::abs(qr.r(0, 0)));
  expect_leading_gram(a, qr, n, 1e-13);
  expect_column_norms(a, qr, 1e-9);
}

TEST(Geqp3, WideInput) {
  const index_t m = 9, n = 50;
  const Matrix<double> a = Matrix<double>::random_normal(m, n, 717);
  const auto qr = geqp3(a, 0.0, 0);
  EXPECT_EQ(qr.rank, m);
  EXPECT_EQ(qr.r.rows(), m);
  EXPECT_EQ(qr.r.cols(), n);
  expect_permutation(qr.jpvt, n);
  expect_leading_gram(a, qr, m, 1e-13);
  expect_column_norms(a, qr, 1e-9);
}

TEST(Geqp3, OneByOne) {
  Matrix<double> a(1, 1, -3.0);
  auto qr = geqp3(a, 1e-10, 0);
  EXPECT_EQ(qr.rank, 1);
  EXPECT_DOUBLE_EQ(std::abs(qr.r(0, 0)), 3.0);
  a(0, 0) = 0.0;
  qr = geqp3(a, 1e-10, 0);
  EXPECT_EQ(qr.rank, 0);
  EXPECT_EQ(qr.r(0, 0), 0.0);
}

TEST(Geqp3, AllZeroInput) {
  const Matrix<double> a(30, 40);
  const auto qr = geqp3(a, 1e-10, 0);
  EXPECT_EQ(qr.rank, 0);
  expect_permutation(qr.jpvt, 40);
  for (index_t j = 0; j < 40; ++j)
    for (index_t i = 0; i < qr.r.rows(); ++i) EXPECT_EQ(qr.r(i, j), 0.0);
  EXPECT_EQ(geqp3(a, 0.0, 0).rank, 0);
}

TEST(Geqp3, FloatChoosesTheDoublePivots) {
  // Well-separated spectrum (ratio 0.5 per column): float input, factored
  // in double, picks the same pivots as the double factorization.
  const index_t m = 100, n = 64;
  Matrix<double> a = Matrix<double>::random_normal(m, n, 718);
  const Matrix<double> v = Matrix<double>::random_normal(n, n, 719);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) a(i, j) *= std::pow(0.5, double(j) / 2);
  const Matrix<double> ad = matmul(a, v);
  const Matrix<float> af = convert<float>(ad);
  const auto qd = geqp3(convert<double>(af), 1e-5, 0);
  const auto qf = geqp3(af, 1e-5f, 0);
  ASSERT_EQ(qf.rank, qd.rank);
  EXPECT_GT(qf.rank, 32);
  for (index_t k = 0; k < qd.rank; ++k) {
    EXPECT_EQ(qf.jpvt[std::size_t(k)], qd.jpvt[std::size_t(k)]) << k;
    EXPECT_NEAR(double(qf.r(k, k)), qd.r(k, k),
                1e-6 * std::abs(qd.r(k, k)) + 1e-30);
  }
}

// ----------------------------------------------------------------- ID ----

class IdRanks : public ::testing::TestWithParam<int> {};

TEST_P(IdRanks, ReconstructsLowRankMatrix) {
  const index_t r = GetParam();
  Matrix<double> b = Matrix<double>::random_normal(60, r, 61);
  Matrix<double> c = Matrix<double>::random_normal(r, 35, 62);
  Matrix<double> a = matmul(b, c);
  auto id = interp_decomp(a, 1e-10, 0);
  EXPECT_EQ(id.rank, r);
  // A ≈ A(:, skel) P.
  std::vector<index_t> all_rows(60);
  std::iota(all_rows.begin(), all_rows.end(), index_t(0));
  Matrix<double> askel = a.gather(all_rows, id.skel);
  Matrix<double> rec = matmul(askel, id.p);
  EXPECT_LT(diff_fro(rec, a), 1e-7 * norm_fro(a));
}

INSTANTIATE_TEST_SUITE_P(Ranks, IdRanks, ::testing::Values(1, 3, 8, 20));

TEST(Id, IdentityOnSkeletonColumns) {
  Matrix<double> a = Matrix<double>::random_normal(30, 12, 63);
  auto id = interp_decomp(a, 0.0, 6);
  ASSERT_EQ(id.rank, 6);
  for (index_t t = 0; t < id.rank; ++t) {
    const index_t col = id.skel[std::size_t(t)];
    for (index_t i = 0; i < id.rank; ++i)
      EXPECT_NEAR(id.p(i, col), i == t ? 1.0 : 0.0, 1e-12);
  }
}

TEST(Id, ToleranceControlsError) {
  // Matrix with geometric singular-value decay.
  const index_t n = 40;
  Matrix<double> u = Matrix<double>::random_normal(n, n, 64);
  Matrix<double> a(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      a(i, j) = u(i, j) * std::pow(0.5, double(j));
  auto loose = interp_decomp(a, 1e-2, 0);
  auto tight = interp_decomp(a, 1e-8, 0);
  EXPECT_LT(loose.rank, tight.rank);
  EXPECT_LE(loose.est_error, 1.1e-2 * 10);  // order of magnitude
}

// ---------------------------------------------------------------- DST ----

TEST(Dst, BasisIsOrthogonal) {
  const index_t n = 16;
  auto q = dst_basis<double>(n);
  Matrix<double> qtq(n, n);
  gemm(Op::Trans, Op::None, 1.0, q, q, 0.0, qtq);
  EXPECT_LT(diff_fro(qtq, Matrix<double>::identity(n)), 1e-12);
}

TEST(Dst, DiagonalizesTridiagonalStencil) {
  const index_t n = 12;
  auto q = dst_basis<double>(n);
  // L = tridiag(-1, 2, -1).
  Matrix<double> l(n, n);
  for (index_t i = 0; i < n; ++i) {
    l(i, i) = 2.0;
    if (i > 0) l(i, i - 1) = -1.0;
    if (i + 1 < n) l(i, i + 1) = -1.0;
  }
  // Q^T L Q should be diag(lambda_k).
  Matrix<double> tmp = matmul(l, q);
  Matrix<double> d(n, n);
  gemm(Op::Trans, Op::None, 1.0, q, tmp, 0.0, d);
  for (index_t k = 0; k < n; ++k)
    EXPECT_NEAR(d(k, k), dst_eigenvalue(k, n), 1e-12);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      if (i != j) EXPECT_NEAR(d(i, j), 0.0, 1e-12);
}

// -------------------------------------------------------------- BLAS-1 ----

TEST(Blas1, NrmDotAxpy) {
  std::vector<double> x = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(nrm2(2, x.data()), 5.0);
  std::vector<double> y = {1.0, -1.0};
  EXPECT_DOUBLE_EQ(dot(2, x.data(), y.data()), -1.0);
  axpy(2, 2.0, x.data(), y.data());
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

// ------------------------------------------- GEMM microkernel dispatch ----

/// RAII guard: pins GOFMM_FORCE_SCALAR for a scope, restoring the previous
/// environment and re-running dispatch on exit.
class ForceScalarGuard {
 public:
  ForceScalarGuard() {
    const char* prev = std::getenv("GOFMM_FORCE_SCALAR");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    setenv("GOFMM_FORCE_SCALAR", "1", 1);
    gemm_kernel_refresh();
  }
  ~ForceScalarGuard() {
    if (had_prev_)
      setenv("GOFMM_FORCE_SCALAR", prev_.c_str(), 1);
    else
      unsetenv("GOFMM_FORCE_SCALAR");
    gemm_kernel_refresh();
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

TEST(GemmKernel, DispatchReportsAKnownKernel) {
  const std::string name = gemm_kernel_name();
  EXPECT_TRUE(name == "avx2" || name == "scalar") << name;
}

TEST(GemmKernel, ForceScalarEscapeHatchPinsScalarKernel) {
  ForceScalarGuard guard;
  EXPECT_STREQ(gemm_kernel_name(), "scalar");
}

template <typename T>
void check_dispatch_bitwise(index_t m, index_t n, index_t k) {
  // Odd, non-multiple-of-vector-width sizes: every kernel path (4-column
  // panels, 1-column remainder, SIMD body, scalar tails on misaligned
  // trailing rows) runs. The ASan/UBSan presets re-run this, which is
  // where an out-of-bounds vector tail would trip.
  const Matrix<T> a = Matrix<T>::random_normal(m, k, 451);
  const Matrix<T> b = Matrix<T>::random_normal(k, n, 452);
  const Matrix<T> c0 = Matrix<T>::random_normal(m, n, 453);

  Matrix<T> c_dispatched = c0;
  gemm(Op::None, Op::None, T(1.3), a, b, T(-0.7), c_dispatched);

  Matrix<T> c_scalar = c0;
  {
    ForceScalarGuard guard;
    gemm(Op::None, Op::None, T(1.3), a, b, T(-0.7), c_scalar);
  }

  // Both kernels perform the identical per-element mul+add sequence (the
  // AVX2 kernel never contracts to FMA), so dispatch must never change a
  // single bit of the result.
  EXPECT_TRUE(bitwise_equal(c_dispatched, c_scalar))
      << m << "x" << n << "x" << k << " kernel " << gemm_kernel_name();
}

TEST(GemmKernel, ScalarAndDispatchedBitwiseIdenticalDouble) {
  check_dispatch_bitwise<double>(257, 130, 241);
  check_dispatch_bitwise<double>(65, 1, 33);
  check_dispatch_bitwise<double>(3, 5, 2);
}

TEST(GemmKernel, ScalarAndDispatchedBitwiseIdenticalFloat) {
  check_dispatch_bitwise<float>(257, 130, 241);
  check_dispatch_bitwise<float>(67, 3, 31);
}

TEST(GemmKernel, TransposedGemvBitwiseIdenticalAcrossDispatch) {
  // 8-column AVX2 sweeps, single-column tails and m % 4 tail rows: every
  // path gives the portable kernel's bits.
  for (const index_t m : {index_t(1), index_t(3), index_t(130), index_t(291)})
    for (const index_t n : {index_t(1), index_t(7), index_t(13)}) {
      const index_t lda = m + 3;
      const Matrix<double> a = Matrix<double>::random_normal(lda, n, 461);
      const Matrix<double> x = Matrix<double>::random_normal(m, 1, 462);
      std::vector<double> y_dispatched(std::size_t(n), 0.0);
      std::vector<double> y_scalar(std::size_t(n), 0.0);
      gemv_t_panel(m, n, a.data(), lda, x.data(), y_dispatched.data());
      {
        ForceScalarGuard guard;
        gemv_t_panel(m, n, a.data(), lda, x.data(), y_scalar.data());
      }
      for (index_t j = 0; j < n; ++j) {
        EXPECT_EQ(std::memcmp(&y_dispatched[std::size_t(j)],
                              &y_scalar[std::size_t(j)], sizeof(double)),
                  0)
            << m << "x" << n << " column " << j;
        EXPECT_NEAR(y_scalar[std::size_t(j)], dot(m, a.col(j), x.data()),
                    1e-12 * (1 + std::sqrt(double(m))));
      }
    }
}

// ------------------------------------------------------------- eigen ----

TEST(Steqr, DiagonalizesKnownTridiagonal) {
  // The (-1, 2, -1) stencil of size n has eigenvalues
  // 2 - 2cos(kπ/(n+1)), a closed-form cross-check of TQL2.
  const int n = 12;
  std::vector<double> diag(n, 2.0);
  std::vector<double> off(n - 1, -1.0);
  Matrix<double> z = Matrix<double>::identity(n);
  ASSERT_TRUE(steqr(diag, off, &z));
  for (int i = 0; i < n; ++i) {
    const double want =
        2.0 - 2.0 * std::cos(double(i + 1) * M_PI / double(n + 1));
    EXPECT_NEAR(diag[std::size_t(i)], want, 1e-12) << "eigenvalue " << i;
    EXPECT_LE(diag[std::size_t(i)],
              i + 1 < n ? diag[std::size_t(i) + 1] : 1e300)
        << "not ascending";
  }
  // z columns are the eigenvectors: T z_i = λ_i z_i and zᵀz = I.
  for (int i = 0; i < n; ++i) {
    for (int r = 0; r < n; ++r) {
      double tz = 2.0 * z(r, i);
      if (r > 0) tz -= z(r - 1, i);
      if (r + 1 < n) tz -= z(r + 1, i);
      EXPECT_NEAR(tz, diag[std::size_t(i)] * z(r, i), 1e-12);
    }
    for (int j = 0; j < n; ++j)
      EXPECT_NEAR(dot(n, z.col(i), z.col(j)), i == j ? 1.0 : 0.0, 1e-12);
  }
}

TEST(Steqr, RotatesAPassedBasisIntoRitzVectors) {
  // Passing an m-by-n block (not identity) must rotate its columns by the
  // same similarity — the Lanczos Ritz-vector path.
  std::vector<double> diag = {1.0, 3.0, 2.0};
  std::vector<double> off = {0.4, 0.1};
  Matrix<double> v = Matrix<double>::random_normal(7, 3, 99);
  const Matrix<double> v0 = v;
  std::vector<double> d2 = diag;
  std::vector<double> o2 = off;
  Matrix<double> s = Matrix<double>::identity(3);
  ASSERT_TRUE(steqr(d2, o2, &s));
  ASSERT_TRUE(steqr(diag, off, &v));
  // v == v0 * s column for column.
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 7; ++i) {
      double want = 0;
      for (index_t l = 0; l < 3; ++l) want += v0(i, l) * s(l, j);
      EXPECT_NEAR(v(i, j), want, 1e-13);
    }
}

TEST(Syev, MatchesEigendecompositionOfRandomSpd) {
  const index_t n = 24;
  // A = GᵀG + I: symmetric positive definite with spread singular values.
  const Matrix<double> g = Matrix<double>::random_normal(n, n, 5);
  Matrix<double> a(n, n);
  gemm(Op::Trans, Op::None, 1.0, g, g, 0.0, a);
  for (index_t i = 0; i < n; ++i) a(i, i) += 1.0;

  std::vector<double> w;
  Matrix<double> z(n, n);
  ASSERT_TRUE(syev(a, w, &z));
  ASSERT_EQ(index_t(w.size()), n);
  double trace = 0, wsum = 0;
  for (index_t i = 0; i < n; ++i) {
    trace += a(i, i);
    wsum += w[std::size_t(i)];
    if (i > 0) EXPECT_GE(w[std::size_t(i)], w[std::size_t(i) - 1]);
    EXPECT_GT(w[std::size_t(i)], 0.0);  // SPD input
  }
  EXPECT_NEAR(trace, wsum, 1e-10 * std::abs(trace));
  // Residual ‖A z_i − w_i z_i‖ and orthonormality of z.
  for (index_t i = 0; i < n; ++i) {
    for (index_t r = 0; r < n; ++r) {
      double az = 0;
      for (index_t c = 0; c < n; ++c) az += a(r, c) * z(c, i);
      EXPECT_NEAR(az, w[std::size_t(i)] * z(r, i), 1e-9 * w[w.size() - 1]);
    }
    for (index_t j = 0; j <= i; ++j)
      EXPECT_NEAR(dot(n, z.col(i), z.col(j)), i == j ? 1.0 : 0.0, 1e-12);
  }
}

TEST(Syev, ReferencesOnlyTheLowerTriangle) {
  // Garbage in the strict upper triangle must not change the result.
  Matrix<double> a(5, 5);
  for (index_t j = 0; j < 5; ++j)
    for (index_t i = j; i < 5; ++i) a(i, j) = 1.0 / double(i + j + 1);
  Matrix<double> dirty = a;
  for (index_t j = 1; j < 5; ++j)
    for (index_t i = 0; i < j; ++i) dirty(i, j) = 1e9;
  std::vector<double> w1, w2;
  ASSERT_TRUE(syev(a, w1));
  ASSERT_TRUE(syev(dirty, w2));
  for (std::size_t i = 0; i < w1.size(); ++i) EXPECT_EQ(w1[i], w2[i]);
}

TEST(Syev, AgreesWithLdltInertiaAcrossShifts) {
  // The two dense cross-check tools of the spectral tier must agree with
  // each other: #{w < σ} from syev == LDLᵀ inertia of A − σI.
  const index_t n = 16;
  const Matrix<double> g = Matrix<double>::random_normal(n, n, 21);
  Matrix<double> a(n, n);
  gemm(Op::Trans, Op::None, 1.0, g, g, 0.0, a);
  std::vector<double> w;
  ASSERT_TRUE(syev(a, w));
  for (double q : {0.2, 0.5, 0.8}) {
    const std::size_t i = std::size_t(q * double(n - 1));
    if (w[i + 1] - w[i] < 1e-12) continue;
    const double sigma = 0.5 * (w[i] + w[i + 1]);
    Matrix<double> shifted = a;
    for (index_t d = 0; d < n; ++d) shifted(d, d) -= sigma;
    std::vector<index_t> ipiv;
    ASSERT_TRUE(sytrf_lower(shifted, ipiv));
    EXPECT_EQ(ldlt_inertia(shifted, ipiv).negative, index_t(i) + 1);
  }
}

}  // namespace
}  // namespace gofmm::la
