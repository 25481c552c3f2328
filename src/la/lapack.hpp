// LAPACK-subset: Cholesky factorization/inversion and rank-revealing
// column-pivoted Householder QR (GEQP3) with early termination — the two
// factorizations GOFMM's skeletonization and matrix generators require.
#pragma once

#include <vector>

#include "la/blas.hpp"
#include "la/matrix.hpp"

namespace gofmm::la {

/// In-place lower Cholesky factorization A = L*L^T of an SPD matrix.
/// On exit the lower triangle of `a` holds L (upper triangle untouched).
/// Returns false if a non-positive pivot is met (matrix not SPD within
/// round-off), in which case `a` is partially overwritten.
template <typename T>
bool potrf_lower(Matrix<T>& a);

/// Solves A*X = B for SPD A given its Cholesky factor L (from potrf_lower).
/// X overwrites B.
template <typename T>
void chol_solve(const Matrix<T>& l, Matrix<T>& b);

/// Dense inverse of an SPD matrix via Cholesky: returns A^{-1} (symmetric).
/// O(N^3); used by the matrix zoo to materialise inverse-operator matrices.
template <typename T>
Matrix<T> spd_inverse(Matrix<T> a);

/// Result of a column-pivoted, rank-revealing QR factorization.
///
/// Factors A*P = Q*R where P permutes columns so diagonal entries of R are
/// non-increasing in magnitude. Only R and the pivots are retained: GOFMM's
/// interpolative decomposition needs R11^{-1}*R12, never Q.
template <typename T>
struct PivotedQr {
  Matrix<T> r;                 ///< min(m,n)-by-n upper-trapezoidal factor.
  std::vector<index_t> jpvt;   ///< Column permutation: column k of A*P is A(:, jpvt[k]).
  index_t rank = 0;            ///< Numerical rank detected (see geqp3).
};

/// LU factorization with partial pivoting (LAPACK GETRF): A = P*L*U,
/// factors stored in place, pivots as row-swap indices. Returns false on
/// exact singularity. Used for the small dense "capacitance" systems of
/// the HODLR direct solver (symmetric but indefinite, so Cholesky does
/// not apply).
template <typename T>
bool getrf(Matrix<T>& a, std::vector<index_t>& pivots);

/// Solves A*X = B given the getrf factorization; X overwrites B.
template <typename T>
void getrs(const Matrix<T>& lu, const std::vector<index_t>& pivots,
           Matrix<T>& b);

/// Column-pivoted Householder QR with early stop (LAPACK GEQP3 semantics
/// plus truncation). Stops at step k when either k == max_rank or
/// |R(k,k)| <= rel_tol * |R(0,0)| — the paper's adaptive-rank criterion
/// sigma_{s+1} < tau estimated by the pivoted-QR diagonal.
/// Pass max_rank <= 0 for "no cap"; rel_tol <= 0 for "no tolerance stop".
/// On an early stop, rows >= rank of R hold the updated trailing block.
///
/// Blocked in LAPACK's xLAQPS style: per column only the pivot column, the
/// pivot row and the partial norms are brought up to date, and the
/// trailing block takes one gemm_panel update per 32-column panel (a
/// column whose norm must be recomputed ends the panel early). Serial: no
/// OpenMP region of its own. Float input is factored in a double copy and
/// R rounded back, so float and double choose the same pivots up to
/// input rounding.
template <typename T>
PivotedQr<T> geqp3(Matrix<T> a, T rel_tol, index_t max_rank);

extern template bool potrf_lower<float>(Matrix<float>&);
extern template bool potrf_lower<double>(Matrix<double>&);
extern template void chol_solve<float>(const Matrix<float>&, Matrix<float>&);
extern template void chol_solve<double>(const Matrix<double>&,
                                        Matrix<double>&);
extern template Matrix<float> spd_inverse<float>(Matrix<float>);
extern template Matrix<double> spd_inverse<double>(Matrix<double>);
extern template PivotedQr<float> geqp3<float>(Matrix<float>, float, index_t);
extern template PivotedQr<double> geqp3<double>(Matrix<double>, double,
                                                index_t);
extern template bool getrf<float>(Matrix<float>&, std::vector<index_t>&);
extern template bool getrf<double>(Matrix<double>&, std::vector<index_t>&);
extern template void getrs<float>(const Matrix<float>&,
                                  const std::vector<index_t>&,
                                  Matrix<float>&);
extern template void getrs<double>(const Matrix<double>&,
                                   const std::vector<index_t>&,
                                   Matrix<double>&);

}  // namespace gofmm::la
