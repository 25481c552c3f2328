#include "la/lapack.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

namespace gofmm::la {

namespace {

/// Left-looking scalar Cholesky of the diagonal block [k0, k0+nb), reading
/// only columns >= k0 (earlier columns' contributions were already folded
/// in by the right-looking panel updates). Also updates the panel rows
/// below the block (rows [k0+nb, n) of the same columns).
template <typename T>
bool potrf_diag_panel(Matrix<T>& a, index_t k0, index_t nb) {
  const index_t n = a.rows();
  for (index_t k = k0; k < k0 + nb; ++k) {
    double d = double(a(k, k));
    for (index_t t = k0; t < k; ++t) d -= double(a(k, t)) * double(a(k, t));
    if (d <= 0.0 || !std::isfinite(d)) return false;
    const T lkk = T(std::sqrt(d));
    a(k, k) = lkk;
    const T inv = T(1) / lkk;
#pragma omp parallel for schedule(static) if (n - k > 256)
    for (index_t i = k + 1; i < n; ++i) {
      double s = double(a(i, k));
      for (index_t t = k0; t < k; ++t) s -= double(a(i, t)) * double(a(k, t));
      a(i, k) = T(s) * inv;
    }
  }
  return true;
}

}  // namespace

template <typename T>
bool potrf_lower(Matrix<T>& a) {
  const index_t n = a.rows();
  require(a.rows() == a.cols(), "potrf: matrix must be square");
  // Right-looking blocked factorization: factor an nb-wide panel with the
  // scalar kernel, then downdate the trailing lower triangle with ONE
  // in-place panel GEMM per column stripe — the O(n³) bulk runs at
  // matrix-multiply speed instead of the strided scalar dot products.
  // Small matrices stay on the scalar path (the panel setup would not
  // amortise); the per-block arithmetic is unchanged, only reordered.
  constexpr index_t kBlock = 96;
  if (n <= 2 * kBlock) return potrf_diag_panel(a, 0, n);
  for (index_t k0 = 0; k0 < n; k0 += kBlock) {
    const index_t nb = std::min(kBlock, n - k0);
    if (!potrf_diag_panel(a, k0, nb)) return false;
    const index_t rest = n - k0 - nb;
    if (rest == 0) break;
    // Trailing update A22 -= L21 L21ᵀ, lower trapezoid only: stripe the
    // trailing columns and update rows [c0, n) of each stripe. L21ᵀ is a
    // small nb-by-rest transpose copy (O(nb·rest) against 2·rest²·nb).
    Matrix<T> l21t(nb, rest);
    for (index_t j = 0; j < nb; ++j)
      for (index_t i = 0; i < rest; ++i)
        l21t(j, i) = a(k0 + nb + i, k0 + j);
    constexpr index_t kStripe = 128;
    for (index_t c0 = 0; c0 < rest; c0 += kStripe) {
      const index_t cb = std::min(kStripe, rest - c0);
      // The stripe's rectangular update starts at its own first row, so
      // the cb-wide wedge ABOVE the diagonal inside the stripe would be
      // downdated too. Save and restore it around the GEMM — O(cb²)
      // copies against 2·(rest−c0)·cb·nb flops — to keep the documented
      // contract that potrf_lower never touches the strict upper
      // triangle.
      Matrix<T> wedge(cb, cb);
      for (index_t j = 1; j < cb; ++j)
        std::copy_n(a.col(k0 + nb + c0 + j) + k0 + nb + c0, j,
                    wedge.col(j));
      gemm_panel(rest - c0, cb, nb, T(-1), a.col(k0) + k0 + nb + c0, n,
                 l21t.col(c0), nb, a.col(k0 + nb + c0) + k0 + nb + c0, n);
      for (index_t j = 1; j < cb; ++j)
        std::copy_n(wedge.col(j), j, a.col(k0 + nb + c0 + j) + k0 + nb + c0);
    }
  }
  return true;
}

template <typename T>
void chol_solve(const Matrix<T>& l, Matrix<T>& b) {
  // A = L L^T => solve L y = b, then L^T x = y.
  trsm(/*upper=*/false, Op::None, /*unit_diag=*/false, T(1), l, b);
  trsm(/*upper=*/false, Op::Trans, /*unit_diag=*/false, T(1), l, b);
}

template <typename T>
Matrix<T> spd_inverse(Matrix<T> a) {
  const index_t n = a.rows();
  require(potrf_lower(a), "spd_inverse: matrix is not positive definite");
  Matrix<T> inv = Matrix<T>::identity(n);
  chol_solve(a, inv);
  // Symmetrise to kill the O(eps) asymmetry from the triangular solves.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j + 1; i < n; ++i) {
      const T v = T(0.5) * (inv(i, j) + inv(j, i));
      inv(i, j) = v;
      inv(j, i) = v;
    }
  return inv;
}

namespace {

// Columns per GEQP3 panel: the reflectors folded into one trailing GEMM
// (LAPACK's xGEQP3 default block size).
constexpr index_t kQrcpBlock = 32;

// Blocked column-pivoted Householder QR (LAPACK xLAQPS), in place on a
// double matrix. Within a panel of up to kQrcpBlock columns only the
// pivot column (lazily, from the panel's reflectors) and the pivot row are
// brought up to date; the reflectors accumulate in F = τ·Aᵀv, and the
// trailing block is updated once per panel by ONE gemm_panel,
//   A(k:m, k:n) -= V(k:m, panel) · F(k:n, panel)ᵀ.
// Serial by design: the only parallelism is gemm_panel's own (a one-thread
// team on rt::Scheduler workers).
PivotedQr<double> qrcp(Matrix<double>& a, double rel_tol, index_t max_rank) {
  const index_t m = a.rows(), n = a.cols();
  const index_t kmax0 = std::min(m, n);
  const index_t kmax = (max_rank > 0) ? std::min(kmax0, max_rank) : kmax0;

  PivotedQr<double> out;
  out.jpvt.resize(std::size_t(n));
  for (index_t j = 0; j < n; ++j) out.jpvt[std::size_t(j)] = j;

  // Partial column norms, maintained by downdating with a recompute guard
  // against cancellation. A column flagged for recompute ends the panel;
  // its norm is recomputed once the trailing block is up to date.
  std::vector<double> cnorm(std::size_t(n), 0.0);
  std::vector<double> cnorm0(std::size_t(n), 0.0);
  for (index_t j = 0; j < n; ++j) {
    cnorm[std::size_t(j)] = nrm2(m, a.col(j));
    cnorm0[std::size_t(j)] = cnorm[std::size_t(j)];
  }
  std::vector<index_t> stale;

  // ft(c, j) = F(j, c): column j's coefficients against the panel's
  // reflector c, stored so gemm_panel reads F(k:n, panel)ᵀ in place.
  const index_t nb = std::min(kQrcpBlock, std::max<index_t>(kmax, 1));
  Matrix<double> ft(nb, n);
  std::vector<double> work(std::size_t(n), 0.0);
  std::vector<double> aux(std::size_t(nb), 0.0);

  double r00 = 0.0;
  index_t k = 0;
  bool stopped = false;
  while (k < kmax && !stopped) {
    const index_t p0 = k;  // first column of this panel
    index_t c = 0;         // reflectors accumulated in the panel
    while (k < kmax) {
      // Pivot: bring the column with the largest partial norm to k.
      index_t p = k;
      for (index_t j = k + 1; j < n; ++j)
        if (cnorm[std::size_t(j)] > cnorm[std::size_t(p)]) p = j;
      if (p != k) {
        std::swap_ranges(a.col(k), a.col(k) + m, a.col(p));
        std::swap_ranges(ft.col(k), ft.col(k) + c, ft.col(p));
        std::swap(cnorm[std::size_t(k)], cnorm[std::size_t(p)]);
        std::swap(cnorm0[std::size_t(k)], cnorm0[std::size_t(p)]);
        std::swap(out.jpvt[std::size_t(k)], out.jpvt[std::size_t(p)]);
      }

      // Lazy update of the pivot column by the panel's reflectors:
      // A(k:m, k) -= V(k:m, p0:k) · F(k, p0:k)ᵀ.
      double* ak = a.col(k);
      for (index_t t = 0; t < c; ++t) {
        const double f = ft(t, k);
        const double* vt = a.col(p0 + t);
        for (index_t i = k; i < m; ++i) ak[i] -= vt[i] * f;
      }

      // Rank-revealing early exit: the next diagonal of R estimates
      // sigma_{k+1}; stop once it falls below the relative tolerance.
      const double alpha = nrm2(m - k, ak + k);
      if (k == 0) r00 = alpha;
      if ((rel_tol > 0.0 && alpha <= rel_tol * std::max(r00, 1e-300)) ||
          alpha == 0.0) {
        stopped = true;
        break;
      }

      // Householder vector v = x - beta*e1, normalised so v[0] = 1; a zero
      // tau (column already aligned with e1) makes the reflector I.
      const double akk = ak[k];
      const double beta = (akk >= 0.0) ? -alpha : alpha;
      const double v0 = akk - beta;
      double tau = 0.0;
      if (std::abs(v0) < std::numeric_limits<double>::min()) {
        for (index_t i = k + 1; i < m; ++i) ak[i] = 0.0;
      } else {
        const double inv_v0 = 1.0 / v0;
        for (index_t i = k + 1; i < m; ++i) ak[i] *= inv_v0;
        tau = (beta - akk) / beta;
      }
      ak[k] = 1.0;  // v(0), until the pivot row is updated

      // F(k+1:n, c) = tau·A(k:m, k+1:n)ᵀv over the not-yet-updated
      // trailing block, corrected for the panel's earlier reflectors:
      // F(:, c) -= tau·F(:, 0:c)·(V(k:m, 0:c)ᵀv).
      const index_t nt = n - k - 1;
      if (tau != 0.0 && nt > 0) {
        gemv_t_panel(m - k, nt, a.col(k + 1) + k, m, ak + k, work.data());
        for (index_t j = 0; j < nt; ++j)
          ft(c, k + 1 + j) = tau * work[std::size_t(j)];
        if (c > 0) {
          gemv_t_panel(m - k, c, a.col(p0) + k, m, ak + k, aux.data());
          for (index_t t = 0; t < c; ++t) aux[std::size_t(t)] *= -tau;
          gemv_t_panel(c, nt, ft.col(k + 1), nb, aux.data(), work.data());
          for (index_t j = 0; j < nt; ++j)
            ft(c, k + 1 + j) += work[std::size_t(j)];
        }
      } else {
        for (index_t j = k + 1; j < n; ++j) ft(c, j) = 0.0;
      }

      // Pivot row: A(k, k+1:n) -= V(k, p0:k+1) · F(k+1:n, 0:c+1)ᵀ.
      for (index_t t = 0; t <= c; ++t) aux[std::size_t(t)] = a(k, p0 + t);
      gemv_t_panel(c + 1, nt, ft.col(k + 1), nb, aux.data(), work.data());
      for (index_t j = 0; j < nt; ++j) a(k, k + 1 + j) -= work[std::size_t(j)];
      ak[k] = beta;

      // Downdate partial norms of the columns right of k.
      for (index_t j = k + 1; j < n; ++j) {
        double& cn = cnorm[std::size_t(j)];
        if (cn == 0.0) continue;
        const double t = std::abs(a(k, j)) / cn;
        const double f = std::max(0.0, (1.0 + t) * (1.0 - t));
        const double ratio = cn / std::max(cnorm0[std::size_t(j)], 1e-300);
        if (f * ratio * ratio <= 1e-12)
          stale.push_back(j);  // cancellation risk: recompute exactly
        else
          cn *= std::sqrt(f);
      }
      ++c;
      ++k;
      if (c == nb || !stale.empty()) break;
    }

    // Trailing update with the panel's reflectors, also on an early stop
    // (where the pivot column k is already current): rows >= rank of R
    // then hold the updated trailing block.
    const index_t j0 = stopped ? k + 1 : k;
    if (c > 0 && j0 < n)
      gemm_panel(m - k, n - j0, c, -1.0, a.col(p0) + k, m, ft.col(j0), nb,
                 a.col(j0) + k, m);
    for (index_t j : stale) {
      cnorm[std::size_t(j)] = nrm2(m - k, a.col(j) + k);
      cnorm0[std::size_t(j)] = cnorm[std::size_t(j)];
    }
    stale.clear();
  }
  out.rank = k;

  // Extract R: kmax0-by-n upper trapezoid (entries below diag are the
  // Householder vectors; zero them out in the copy).
  out.r.resize(kmax0, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= std::min(j, kmax0 - 1); ++i)
      out.r(i, j) = a(i, j);
  return out;
}

}  // namespace

template <typename T>
PivotedQr<T> geqp3(Matrix<T> a, T rel_tol, index_t max_rank) {
  if constexpr (std::is_same_v<T, double>) {
    return qrcp(a, rel_tol, max_rank);
  } else {
    // Factored in double: a float panel update drifts the pivots and the
    // truncation rank enough to move the float accuracy goldens.
    Matrix<double> ad = convert<double>(a);
    PivotedQr<double> qd = qrcp(ad, double(rel_tol), max_rank);
    PivotedQr<T> out;
    out.r = convert<T>(qd.r);
    out.jpvt = std::move(qd.jpvt);
    out.rank = qd.rank;
    return out;
  }
}

namespace {

/// Scalar right-looking LU with partial pivoting on the panel columns
/// [k0, k0+nb), rows [k0, n). Row swaps are applied to the FULL rows
/// (LAPACK laswp convention), so the already-factored left part and the
/// not-yet-updated right part stay consistent.
template <typename T>
bool getrf_panel(Matrix<T>& a, std::vector<index_t>& pivots, index_t k0,
                 index_t nb) {
  const index_t n = a.rows();
  for (index_t k = k0; k < k0 + nb; ++k) {
    // Partial pivot: largest magnitude in column k at or below the diagonal.
    index_t p = k;
    double best = std::abs(double(a(k, k)));
    for (index_t i = k + 1; i < n; ++i) {
      const double v = std::abs(double(a(i, k)));
      if (v > best) {
        best = v;
        p = i;
      }
    }
    pivots[std::size_t(k)] = p;
    if (best == 0.0) return false;
    if (p != k)
      for (index_t j = 0; j < n; ++j) std::swap(a(k, j), a(p, j));
    const T inv = T(1) / a(k, k);
    for (index_t i = k + 1; i < n; ++i) a(i, k) *= inv;
    // Right-looking update restricted to the panel's own columns. Each
    // column reads only the fixed pivot column, so the OpenMP sweep is
    // bitwise identical to the serial loop at any thread count.
#pragma omp parallel for schedule(static) if (k0 + nb - k > 8 && n - k > 256)
    for (index_t j = k + 1; j < k0 + nb; ++j) {
      const T akj = a(k, j);
      if (akj == T(0)) continue;
      T* cj = a.col(j);
      const T* ck = a.col(k);
      for (index_t i = k + 1; i < n; ++i) cj[i] -= ck[i] * akj;
    }
  }
  return true;
}

}  // namespace

template <typename T>
bool getrf(Matrix<T>& a, std::vector<index_t>& pivots) {
  const index_t n = a.rows();
  require(a.rows() == a.cols(), "getrf: matrix must be square");
  pivots.assign(std::size_t(n), 0);
  // Right-looking blocked factorization: pivoted scalar LU on a full-height
  // panel, a small triangular solve for the U12 stripe, then ONE in-place
  // panel GEMM downdate of the trailing submatrix — the capacitance-system
  // hot path of the factorization engine runs at matrix-multiply speed.
  // Small systems keep the scalar path.
  constexpr index_t kBlock = 64;
  if (n <= 2 * kBlock) return getrf_panel(a, pivots, 0, n);
  for (index_t k0 = 0; k0 < n; k0 += kBlock) {
    const index_t nb = std::min(kBlock, n - k0);
    if (!getrf_panel(a, pivots, k0, nb)) return false;
    const index_t rest = n - k0 - nb;
    if (rest == 0) break;
    // U12 = L11⁻¹ A12: unit-lower solve against the nb-by-nb panel block,
    // run on a copy (trsm wants a square operand; O(nb²·rest) work).
    Matrix<T> l11(nb, nb);
    for (index_t j = 0; j < nb; ++j)
      for (index_t i = j; i < nb; ++i) l11(i, j) = a(k0 + i, k0 + j);
    Matrix<T> u12(nb, rest);
    for (index_t j = 0; j < rest; ++j)
      std::copy_n(a.col(k0 + nb + j) + k0, nb, u12.col(j));
    trsm(/*upper=*/false, Op::None, /*unit_diag=*/true, T(1), l11, u12);
    for (index_t j = 0; j < rest; ++j)
      std::copy_n(u12.col(j), nb, a.col(k0 + nb + j) + k0);
    // Trailing downdate A22 -= L21 U12, in place.
    gemm_panel(rest, rest, nb, T(-1), a.col(k0) + k0 + nb, n, u12.data(), nb,
               a.col(k0 + nb) + k0 + nb, n);
  }
  return true;
}

template <typename T>
void getrs(const Matrix<T>& lu, const std::vector<index_t>& pivots,
           Matrix<T>& b) {
  const index_t n = lu.rows();
  require(b.rows() == n, "getrs: B row count must match A");
  // Apply row swaps, then L (unit) forward solve, then U back solve.
  for (index_t k = 0; k < n; ++k) {
    const index_t p = pivots[std::size_t(k)];
    if (p != k)
      for (index_t j = 0; j < b.cols(); ++j) std::swap(b(k, j), b(p, j));
  }
  trsm(/*upper=*/false, Op::None, /*unit_diag=*/true, T(1), lu, b);
  trsm(/*upper=*/true, Op::None, /*unit_diag=*/false, T(1), lu, b);
}

template bool getrf<float>(Matrix<float>&, std::vector<index_t>&);
template bool getrf<double>(Matrix<double>&, std::vector<index_t>&);
template void getrs<float>(const Matrix<float>&, const std::vector<index_t>&,
                           Matrix<float>&);
template void getrs<double>(const Matrix<double>&,
                            const std::vector<index_t>&, Matrix<double>&);

template bool potrf_lower<float>(Matrix<float>&);
template bool potrf_lower<double>(Matrix<double>&);
template void chol_solve<float>(const Matrix<float>&, Matrix<float>&);
template void chol_solve<double>(const Matrix<double>&, Matrix<double>&);
template Matrix<float> spd_inverse<float>(Matrix<float>);
template Matrix<double> spd_inverse<double>(Matrix<double>);
template PivotedQr<float> geqp3<float>(Matrix<float>, float, index_t);
template PivotedQr<double> geqp3<double>(Matrix<double>, double, index_t);

}  // namespace gofmm::la
