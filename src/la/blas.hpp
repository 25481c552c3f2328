// BLAS-subset on column-major dense matrices.
//
// This environment ships no BLAS/LAPACK, so the library provides its own
// kernels: a register-blocked, cache-blocked, OpenMP-parallel GEMM plus the
// level-1/2/3 helpers GOFMM needs (GEMV, TRSM, SYRK, AXPY, DOT). All kernels
// are templated on float/double — the paper runs in both precisions.
#pragma once

#include "la/matrix.hpp"

namespace gofmm::la {

/// Transposition selector for gemm-style routines.
enum class Op { None, Trans };

/// C = alpha * op(A) * op(B) + beta * C.
///
/// General matrix-matrix multiply; the workhorse of skeletonization.
/// Blocked for cache and parallelised over column panels with OpenMP.
template <typename T>
void gemm(Op opa, Op opb, T alpha, const Matrix<T>& a, const Matrix<T>& b,
          T beta, Matrix<T>& c);

/// Convenience: C = A * B (allocating).
template <typename T>
Matrix<T> matmul(const Matrix<T>& a, const Matrix<T>& b);

/// y = alpha * op(A) * x + beta * y  (x, y are n-by-1 / m-by-1 matrices).
template <typename T>
void gemv(Op opa, T alpha, const Matrix<T>& a, const T* x, T beta, T* y);

/// Triangular solve with multiple right-hand sides (left side only):
///   op(A) * X = alpha * B, X overwrites B.
/// `upper` selects the triangle of A referenced; `unit_diag` assumes 1s on
/// the diagonal. This is LAPACK's TRSM restricted to the cases GOFMM uses
/// (interpolation-coefficient solves against the R factor of a pivoted QR).
template <typename T>
void trsm(bool upper, Op opa, bool unit_diag, T alpha, const Matrix<T>& a,
          Matrix<T>& b);

/// Raw-pointer panel GEMM: C += alpha * A * B on column-major blocks with
/// explicit leading dimensions (A m-by-k/lda, B k-by-n/ldb, C m-by-n/ldc).
/// This is the in-place trailing-submatrix update the blocked POTRF/GETRF
/// panels in la/lapack.cpp run at matrix-multiply speed — no O(n²) copies
/// of the trailing block per panel step — and the product behind the
/// N2S/S2S/S2N/L2L evaluation tasks (core/evaluator.cpp), which read cached
/// blocks and strided rhs rows in place. Same cache tiling as gemm(); the
/// OpenMP column-panel team is forked only for n > 64, so an r ≤ 64 product
/// stays on the calling thread. C is loaded and stored at every k, so a
/// product split over k gives the same bits as the unsplit one.
template <typename T>
void gemm_panel(index_t m, index_t n, index_t k, T alpha, const T* a,
                index_t lda, const T* b, index_t ldb, T* c, index_t ldc);

/// Raw-pointer transposed GEMV: y[j] = Σᵢ A(i, j)·x[i] for the n columns
/// of a column-major m-by-n block with leading dimension lda. The F = τ·Aᵀv
/// column of the blocked pivoted QR (la/lapack.cpp). Each column sums in
/// four interleaved lanes, so the reduction is not one latency-bound chain;
/// the AVX2 kernel and the portable one run the same per-lane sequence and
/// return the same bits. Serial: no OpenMP team.
void gemv_t_panel(index_t m, index_t n, const double* a, index_t lda,
                  const double* x, double* y);

/// Symmetric rank-k update, lower triangle: C = alpha*A*A^T + beta*C.
/// Only the lower triangle of C is written; the caller may symmetrise.
template <typename T>
void syrk_lower(T alpha, const Matrix<T>& a, T beta, Matrix<T>& c);

/// Euclidean norm of a contiguous vector.
template <typename T>
double nrm2(index_t n, const T* x);

/// Dot product of two contiguous vectors.
template <typename T>
double dot(index_t n, const T* x, const T* y);

/// y += alpha * x on contiguous vectors.
template <typename T>
void axpy(index_t n, T alpha, const T* x, T* y);

/// Name of the GEMM microkernel selected by runtime dispatch: "avx2" when
/// the CPU supports AVX2 and GOFMM_FORCE_SCALAR is unset, else "scalar".
/// Both kernels perform the identical per-element operation sequence
/// (explicit mul+add, no FMA contraction), so results are bitwise equal
/// across the dispatch — the escape hatch changes speed, never bits.
const char* gemm_kernel_name();

/// Re-runs the microkernel dispatch, re-reading the GOFMM_FORCE_SCALAR
/// environment variable (test hook; dispatch normally happens once at
/// first use). Not thread-safe against concurrent GEMMs.
void gemm_kernel_refresh();

extern template void gemm<float>(Op, Op, float, const Matrix<float>&,
                                 const Matrix<float>&, float, Matrix<float>&);
extern template void gemm<double>(Op, Op, double, const Matrix<double>&,
                                  const Matrix<double>&, double,
                                  Matrix<double>&);
extern template Matrix<float> matmul<float>(const Matrix<float>&,
                                            const Matrix<float>&);
extern template Matrix<double> matmul<double>(const Matrix<double>&,
                                              const Matrix<double>&);
extern template void gemv<float>(Op, float, const Matrix<float>&, const float*,
                                 float, float*);
extern template void gemv<double>(Op, double, const Matrix<double>&,
                                  const double*, double, double*);
extern template void trsm<float>(bool, Op, bool, float, const Matrix<float>&,
                                 Matrix<float>&);
extern template void trsm<double>(bool, Op, bool, double,
                                  const Matrix<double>&, Matrix<double>&);
extern template void gemm_panel<float>(index_t, index_t, index_t, float,
                                       const float*, index_t, const float*,
                                       index_t, float*, index_t);
extern template void gemm_panel<double>(index_t, index_t, index_t, double,
                                        const double*, index_t, const double*,
                                        index_t, double*, index_t);
extern template void syrk_lower<float>(float, const Matrix<float>&, float,
                                       Matrix<float>&);
extern template void syrk_lower<double>(double, const Matrix<double>&, double,
                                        Matrix<double>&);
extern template double nrm2<float>(index_t, const float*);
extern template double nrm2<double>(index_t, const double*);
extern template double dot<float>(index_t, const float*, const float*);
extern template double dot<double>(index_t, const double*, const double*);
extern template void axpy<float>(index_t, float, const float*, float*);
extern template void axpy<double>(index_t, double, const double*, double*);

}  // namespace gofmm::la
