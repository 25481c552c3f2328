#include "la/blas.hpp"

#include <omp.h>

#include <atomic>
#include <cstdlib>

#if defined(__x86_64__) && defined(__GNUC__)
#define GOFMM_X86_DISPATCH 1
#include <immintrin.h>
#else
#define GOFMM_X86_DISPATCH 0
#endif

namespace gofmm::la {

namespace {

// Cache-blocking parameters. KB*MB elements of A must fit comfortably in L2
// (240*256*8B = 480KB at double; halve effectively at float). Tuned for the
// generic x86-64 target of this repo; correctness never depends on them.
constexpr index_t kMB = 256;  // rows of A per block
constexpr index_t kKB = 240;  // depth per block
constexpr index_t kNB = 64;   // columns of C per parallel panel

// C(i0:i0+mb, :) += A(i0:i0+mb, k0:k0+kb) * B(k0:k0+kb, jcols) for a panel of
// columns. Inner loops are structured as 4-column rank-1 updates so each
// loaded column of A feeds 8 flops; the i-loop auto-vectorises. This is the
// portable reference kernel of the runtime dispatch below; the AVX2 kernel
// performs the identical per-element operation sequence, so dispatch never
// changes bits.
template <typename T>
void gemm_block_scalar(index_t mb, index_t kb, index_t nb, const T* a,
                       index_t lda, const T* b, index_t ldb, T* c,
                       index_t ldc) {
  index_t j = 0;
  for (; j + 4 <= nb; j += 4) {
    T* c0 = c + (j + 0) * ldc;
    T* c1 = c + (j + 1) * ldc;
    T* c2 = c + (j + 2) * ldc;
    T* c3 = c + (j + 3) * ldc;
    for (index_t k = 0; k < kb; ++k) {
      const T* ak = a + k * lda;
      const T b0 = b[k + (j + 0) * ldb];
      const T b1 = b[k + (j + 1) * ldb];
      const T b2 = b[k + (j + 2) * ldb];
      const T b3 = b[k + (j + 3) * ldb];
      for (index_t i = 0; i < mb; ++i) {
        const T av = ak[i];
        c0[i] += av * b0;
        c1[i] += av * b1;
        c2[i] += av * b2;
        c3[i] += av * b3;
      }
    }
  }
  for (; j < nb; ++j) {
    T* cj = c + j * ldc;
    for (index_t k = 0; k < kb; ++k) {
      const T* ak = a + k * lda;
      const T bv = b[k + j * ldb];
      for (index_t i = 0; i < mb; ++i) cj[i] += ak[i] * bv;
    }
  }
}

// y[j] = sum_i a(i, j) * x[i] over rows [0, m). Each column sums in four
// interleaved lanes (row i feeds lane i % 4 for i < m - m % 4), combined
// as (l0 + l1) + (l2 + l3) before the tail rows: four independent
// accumulators instead of one latency-bound chain. The AVX2 twin keeps
// one four-lane register per column, so dispatch never changes bits.
void gemv_t_scalar(index_t m, index_t n, const double* a, index_t lda,
                   const double* x, double* y) {
  const index_t m4 = m - m % 4;
  for (index_t j = 0; j < n; ++j) {
    const double* cj = a + j * lda;
    double s[4] = {};
    for (index_t i = 0; i < m4; i += 4)
      for (index_t l = 0; l < 4; ++l) s[l] += cj[i + l] * x[i + l];
    double t = (s[0] + s[1]) + (s[2] + s[3]);
    for (index_t i = m4; i < m; ++i) t += cj[i] * x[i];
    y[j] = t;
  }
}

#if GOFMM_X86_DISPATCH

// Hand-vectorised AVX2 twins of gemm_block_scalar. Deliberately explicit
// mul + add intrinsics (NOT vfmadd): the baseline x86-64 scalar kernel
// cannot fuse, so fusing here would make dispatch results differ in the
// last bit. Unaligned loads throughout — lda/ldc are caller column strides
// with no alignment guarantee — and scalar tails for mb % width, which is
// exactly where misaligned-access defects would hide (covered by the
// ASan/UBSan test presets).
__attribute__((target("avx2"))) void gemm_block_avx2(
    index_t mb, index_t kb, index_t nb, const double* a, index_t lda,
    const double* b, index_t ldb, double* c, index_t ldc) {
  index_t j = 0;
  for (; j + 4 <= nb; j += 4) {
    double* c0 = c + (j + 0) * ldc;
    double* c1 = c + (j + 1) * ldc;
    double* c2 = c + (j + 2) * ldc;
    double* c3 = c + (j + 3) * ldc;
    for (index_t k = 0; k < kb; ++k) {
      const double* ak = a + k * lda;
      const __m256d b0 = _mm256_set1_pd(b[k + (j + 0) * ldb]);
      const __m256d b1 = _mm256_set1_pd(b[k + (j + 1) * ldb]);
      const __m256d b2 = _mm256_set1_pd(b[k + (j + 2) * ldb]);
      const __m256d b3 = _mm256_set1_pd(b[k + (j + 3) * ldb]);
      index_t i = 0;
      for (; i + 4 <= mb; i += 4) {
        const __m256d av = _mm256_loadu_pd(ak + i);
        _mm256_storeu_pd(c0 + i, _mm256_add_pd(_mm256_loadu_pd(c0 + i),
                                               _mm256_mul_pd(av, b0)));
        _mm256_storeu_pd(c1 + i, _mm256_add_pd(_mm256_loadu_pd(c1 + i),
                                               _mm256_mul_pd(av, b1)));
        _mm256_storeu_pd(c2 + i, _mm256_add_pd(_mm256_loadu_pd(c2 + i),
                                               _mm256_mul_pd(av, b2)));
        _mm256_storeu_pd(c3 + i, _mm256_add_pd(_mm256_loadu_pd(c3 + i),
                                               _mm256_mul_pd(av, b3)));
      }
      for (; i < mb; ++i) {
        const double av = ak[i];
        c0[i] += av * b[k + (j + 0) * ldb];
        c1[i] += av * b[k + (j + 1) * ldb];
        c2[i] += av * b[k + (j + 2) * ldb];
        c3[i] += av * b[k + (j + 3) * ldb];
      }
    }
  }
  for (; j < nb; ++j) {
    double* cj = c + j * ldc;
    for (index_t k = 0; k < kb; ++k) {
      const double* ak = a + k * lda;
      const double bv = b[k + j * ldb];
      const __m256d bvv = _mm256_set1_pd(bv);
      index_t i = 0;
      for (; i + 4 <= mb; i += 4)
        _mm256_storeu_pd(cj + i, _mm256_add_pd(_mm256_loadu_pd(cj + i),
                                               _mm256_mul_pd(
                                                   _mm256_loadu_pd(ak + i),
                                                   bvv)));
      for (; i < mb; ++i) cj[i] += ak[i] * bv;
    }
  }
}

__attribute__((target("avx2"))) void gemm_block_avx2(
    index_t mb, index_t kb, index_t nb, const float* a, index_t lda,
    const float* b, index_t ldb, float* c, index_t ldc) {
  index_t j = 0;
  for (; j + 4 <= nb; j += 4) {
    float* c0 = c + (j + 0) * ldc;
    float* c1 = c + (j + 1) * ldc;
    float* c2 = c + (j + 2) * ldc;
    float* c3 = c + (j + 3) * ldc;
    for (index_t k = 0; k < kb; ++k) {
      const float* ak = a + k * lda;
      const __m256 b0 = _mm256_set1_ps(b[k + (j + 0) * ldb]);
      const __m256 b1 = _mm256_set1_ps(b[k + (j + 1) * ldb]);
      const __m256 b2 = _mm256_set1_ps(b[k + (j + 2) * ldb]);
      const __m256 b3 = _mm256_set1_ps(b[k + (j + 3) * ldb]);
      index_t i = 0;
      for (; i + 8 <= mb; i += 8) {
        const __m256 av = _mm256_loadu_ps(ak + i);
        _mm256_storeu_ps(c0 + i, _mm256_add_ps(_mm256_loadu_ps(c0 + i),
                                               _mm256_mul_ps(av, b0)));
        _mm256_storeu_ps(c1 + i, _mm256_add_ps(_mm256_loadu_ps(c1 + i),
                                               _mm256_mul_ps(av, b1)));
        _mm256_storeu_ps(c2 + i, _mm256_add_ps(_mm256_loadu_ps(c2 + i),
                                               _mm256_mul_ps(av, b2)));
        _mm256_storeu_ps(c3 + i, _mm256_add_ps(_mm256_loadu_ps(c3 + i),
                                               _mm256_mul_ps(av, b3)));
      }
      for (; i < mb; ++i) {
        const float av = ak[i];
        c0[i] += av * b[k + (j + 0) * ldb];
        c1[i] += av * b[k + (j + 1) * ldb];
        c2[i] += av * b[k + (j + 2) * ldb];
        c3[i] += av * b[k + (j + 3) * ldb];
      }
    }
  }
  for (; j < nb; ++j) {
    float* cj = c + j * ldc;
    for (index_t k = 0; k < kb; ++k) {
      const float* ak = a + k * lda;
      const float bv = b[k + j * ldb];
      const __m256 bvv = _mm256_set1_ps(bv);
      index_t i = 0;
      for (; i + 8 <= mb; i += 8)
        _mm256_storeu_ps(cj + i, _mm256_add_ps(_mm256_loadu_ps(cj + i),
                                               _mm256_mul_ps(
                                                   _mm256_loadu_ps(ak + i),
                                                   bvv)));
      for (; i < mb; ++i) cj[i] += ak[i] * bv;
    }
  }
}

// Finishes one column of gemv_t_avx2: lanes combined as in the scalar
// kernel, then the tail rows.
__attribute__((target("avx2"))) inline double gemv_t_finish(
    __m256d acc, index_t m4, index_t m, const double* col, const double* x) {
  alignas(32) double l[4];
  _mm256_store_pd(l, acc);
  double t = (l[0] + l[1]) + (l[2] + l[3]);
  for (index_t i = m4; i < m; ++i) t += col[i] * x[i];
  return t;
}

__attribute__((target("avx2"))) void gemv_t_avx2(index_t m, index_t n,
                                                 const double* a, index_t lda,
                                                 const double* x, double* y) {
  const index_t m4 = m - m % 4;
  index_t j = 0;
  // Eight columns per sweep: eight independent add chains hide the add
  // latency; each column's arithmetic is the scalar kernel's.
  for (; j + 8 <= n; j += 8) {
    const double* c = a + j * lda;
    __m256d s[8];
    for (int q = 0; q < 8; ++q) s[q] = _mm256_setzero_pd();
    for (index_t i = 0; i < m4; i += 4) {
      const __m256d xv = _mm256_loadu_pd(x + i);
      for (int q = 0; q < 8; ++q)
        s[q] = _mm256_add_pd(
            s[q], _mm256_mul_pd(_mm256_loadu_pd(c + q * lda + i), xv));
    }
    for (int q = 0; q < 8; ++q)
      y[j + q] = gemv_t_finish(s[q], m4, m, c + q * lda, x);
  }
  for (; j < n; ++j) {
    const double* cj = a + j * lda;
    __m256d s = _mm256_setzero_pd();
    for (index_t i = 0; i < m4; i += 4)
      s = _mm256_add_pd(s, _mm256_mul_pd(_mm256_loadu_pd(cj + i),
                                         _mm256_loadu_pd(x + i)));
    y[j] = gemv_t_finish(s, m4, m, cj, x);
  }
}

#endif  // GOFMM_X86_DISPATCH

// One dispatch point: cached per-type function pointers, initialised on
// first use and re-evaluated by gemm_kernel_refresh(). GOFMM_FORCE_SCALAR
// (any non-empty value except "0") pins the portable kernel — the
// escape hatch for feature-detection bugs in the field.
template <typename T>
using GemmBlockFn = void (*)(index_t, index_t, index_t, const T*, index_t,
                             const T*, index_t, T*, index_t);

template <typename T>
struct GemmDispatch {
  static inline std::atomic<GemmBlockFn<T>> fn{nullptr};
};
using GemvTFn = void (*)(index_t, index_t, const double*, index_t,
                         const double*, double*);
std::atomic<GemvTFn> g_gemv_t{nullptr};
std::atomic<const char*> g_kernel_name{nullptr};

bool want_avx2() {
  const char* force = std::getenv("GOFMM_FORCE_SCALAR");
  if (force != nullptr && force[0] != '\0' &&
      !(force[0] == '0' && force[1] == '\0'))
    return false;
#if GOFMM_X86_DISPATCH
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

void dispatch_kernels() {
  const bool avx2 = want_avx2();
#if GOFMM_X86_DISPATCH
  if (avx2) {
    GemmDispatch<double>::fn.store(
        static_cast<GemmBlockFn<double>>(&gemm_block_avx2),
        std::memory_order_relaxed);
    GemmDispatch<float>::fn.store(
        static_cast<GemmBlockFn<float>>(&gemm_block_avx2),
        std::memory_order_relaxed);
    g_gemv_t.store(&gemv_t_avx2, std::memory_order_relaxed);
    g_kernel_name.store("avx2", std::memory_order_release);
    return;
  }
#endif
  (void)avx2;
  GemmDispatch<double>::fn.store(&gemm_block_scalar<double>,
                                 std::memory_order_relaxed);
  GemmDispatch<float>::fn.store(&gemm_block_scalar<float>,
                                std::memory_order_relaxed);
  g_gemv_t.store(&gemv_t_scalar, std::memory_order_relaxed);
  g_kernel_name.store("scalar", std::memory_order_release);
}

template <typename T>
inline void gemm_block(index_t mb, index_t kb, index_t nb, const T* a,
                       index_t lda, const T* b, index_t ldb, T* c,
                       index_t ldc) {
  GemmBlockFn<T> fn = GemmDispatch<T>::fn.load(std::memory_order_relaxed);
  if (fn == nullptr) {
    dispatch_kernels();
    fn = GemmDispatch<T>::fn.load(std::memory_order_relaxed);
  }
  fn(mb, kb, nb, a, lda, b, ldb, c, ldc);
}

// C = alpha*A*B + beta*C with no transposes; A is m-by-kk, B kk-by-n.
template <typename T>
void gemm_nn(T alpha, const Matrix<T>& a, const Matrix<T>& b, T beta,
             Matrix<T>& c) {
  const index_t m = a.rows(), kk = a.cols(), n = b.cols();
  // Scale C by beta first (single pass).
  if (beta != T(1)) {
    T* pc = c.data();
    if (beta == T(0))
      std::fill(pc, pc + c.size(), T(0));
    else
      for (index_t t = 0; t < c.size(); ++t) pc[t] *= beta;
  }
  if (alpha == T(0) || m == 0 || n == 0 || kk == 0) return;

  // When alpha != 1 we scale a temporary copy of B's panel values inline by
  // folding alpha into B access; cheaper: scale B once into a copy only if
  // alpha != 1 (rare in this codebase).
  const Matrix<T>* bp = &b;
  Matrix<T> bscaled;
  if (alpha != T(1)) {
    bscaled = b;
    T* p = bscaled.data();
    for (index_t t = 0; t < bscaled.size(); ++t) p[t] *= alpha;
    bp = &bscaled;
  }

  // Gate the OpenMP team on problem size: narrow-rhs solve sweeps issue
  // thousands of tiny GEMMs (n is 1, m*kk a few thousand) where forking a
  // team costs more than the multiply. The serial and parallel paths run
  // the identical per-column work, so the gate never changes bits.
#pragma omp parallel for schedule(dynamic, 1) \
    if (n > kNB || m * kk * n > index_t(1) << 16)
  for (index_t j0 = 0; j0 < n; j0 += kNB) {
    const index_t nb = std::min(kNB, n - j0);
    for (index_t k0 = 0; k0 < kk; k0 += kKB) {
      const index_t kb = std::min(kKB, kk - k0);
      for (index_t i0 = 0; i0 < m; i0 += kMB) {
        const index_t mb = std::min(kMB, m - i0);
        gemm_block(mb, kb, nb, a.col(k0) + i0, a.rows(), bp->col(j0) + k0,
                   bp->rows(), c.col(j0) + i0, c.rows());
      }
    }
  }
}

}  // namespace

const char* gemm_kernel_name() {
  const char* name = g_kernel_name.load(std::memory_order_acquire);
  if (name == nullptr) {
    dispatch_kernels();
    name = g_kernel_name.load(std::memory_order_acquire);
  }
  return name;
}

void gemm_kernel_refresh() { dispatch_kernels(); }

void gemv_t_panel(index_t m, index_t n, const double* a, index_t lda,
                  const double* x, double* y) {
  GemvTFn fn = g_gemv_t.load(std::memory_order_relaxed);
  if (fn == nullptr) {
    dispatch_kernels();
    fn = g_gemv_t.load(std::memory_order_relaxed);
  }
  fn(m, n, a, lda, x, y);
}

template <typename T>
void gemm(Op opa, Op opb, T alpha, const Matrix<T>& a, const Matrix<T>& b,
          T beta, Matrix<T>& c) {
  const index_t m = (opa == Op::None) ? a.rows() : a.cols();
  const index_t ka = (opa == Op::None) ? a.cols() : a.rows();
  const index_t kb = (opb == Op::None) ? b.rows() : b.cols();
  const index_t n = (opb == Op::None) ? b.cols() : b.rows();
  require(ka == kb, "gemm: inner dimensions disagree");
  require(c.rows() == m && c.cols() == n, "gemm: C has wrong shape");

  // Normalise to the NN case. The transpose copies cost O(mn) against the
  // O(mnk) multiply, and keep a single highly-tuned kernel.
  if (opa == Op::None && opb == Op::None) {
    gemm_nn(alpha, a, b, beta, c);
  } else if (opa == Op::Trans && opb == Op::None) {
    gemm_nn(alpha, a.transposed(), b, beta, c);
  } else if (opa == Op::None && opb == Op::Trans) {
    gemm_nn(alpha, a, b.transposed(), beta, c);
  } else {
    gemm_nn(alpha, a.transposed(), b.transposed(), beta, c);
  }
}

template <typename T>
Matrix<T> matmul(const Matrix<T>& a, const Matrix<T>& b) {
  Matrix<T> c(a.rows(), b.cols());
  gemm(Op::None, Op::None, T(1), a, b, T(0), c);
  return c;
}

template <typename T>
void gemv(Op opa, T alpha, const Matrix<T>& a, const T* x, T beta, T* y) {
  const index_t m = a.rows(), n = a.cols();
  if (opa == Op::None) {
    for (index_t i = 0; i < m; ++i) y[i] *= beta;
    for (index_t j = 0; j < n; ++j) {
      const T xv = alpha * x[j];
      const T* aj = a.col(j);
      for (index_t i = 0; i < m; ++i) y[i] += aj[i] * xv;
    }
  } else {
    for (index_t j = 0; j < n; ++j) {
      const T* aj = a.col(j);
      T s = 0;
      for (index_t i = 0; i < m; ++i) s += aj[i] * x[i];
      y[j] = beta * y[j] + alpha * s;
    }
  }
}

namespace {

/// Unblocked triangular solve on the [i0, i0+nb) diagonal block of op(A),
/// applied to the same row range of B. Indices are global; only entries of
/// the block are referenced.
template <typename T>
void trsm_diag_block(bool solve_upper, Op opa, bool unit_diag,
                     const Matrix<T>& a, Matrix<T>& b, index_t i0,
                     index_t nb) {
#pragma omp parallel for schedule(static) if (b.cols() > 8)
  for (index_t j = 0; j < b.cols(); ++j) {
    T* x = b.col(j);
    if (solve_upper) {
      for (index_t i = i0 + nb - 1; i >= i0; --i) {
        T s = x[i];
        if (opa == Op::None) {
          for (index_t k = i + 1; k < i0 + nb; ++k) s -= a(i, k) * x[k];
        } else {  // A^T upper-effective means A lower stored
          for (index_t k = i + 1; k < i0 + nb; ++k) s -= a(k, i) * x[k];
        }
        if (!unit_diag) s /= a(i, i);
        x[i] = s;
      }
    } else {
      for (index_t i = i0; i < i0 + nb; ++i) {
        T s = x[i];
        if (opa == Op::None) {
          for (index_t k = i0; k < i; ++k) s -= a(i, k) * x[k];
        } else {  // transposed upper matrix acts lower
          for (index_t k = i0; k < i; ++k) s -= a(k, i) * x[k];
        }
        if (!unit_diag) s /= a(i, i);
        x[i] = s;
      }
    }
  }
}

}  // namespace

template <typename T>
void trsm(bool upper, Op opa, bool unit_diag, T alpha, const Matrix<T>& a,
          Matrix<T>& b) {
  const index_t n = a.rows();
  require(a.rows() == a.cols(), "trsm: A must be square");
  require(b.rows() == n, "trsm: B row count must match A");
  if (alpha != T(1)) {
    T* p = b.data();
    for (index_t t = 0; t < b.size(); ++t) p[t] *= alpha;
  }

  // Effective triangle after transposition: solving U^T X = B is a
  // lower-triangular solve with the transposed access pattern.
  const bool solve_upper = (opa == Op::None) ? upper : !upper;

  // Right-looking blocked solve: scalar-solve an nb-wide diagonal block,
  // then downdate every remaining row with ONE GEMM — the O(n² rhs) bulk
  // runs at matrix-multiply speed with cache-friendly access instead of
  // the strided row walks of the scalar loop. Small systems stay on the
  // unblocked path (the copies would not amortise).
  constexpr index_t kBlock = 64;
  if (n <= kBlock + kBlock / 2) {
    trsm_diag_block(solve_upper, opa, unit_diag, a, b, 0, n);
    return;
  }
  const index_t rhs = b.cols();
  if (solve_upper) {
    for (index_t k0 = ((n - 1) / kBlock) * kBlock; k0 >= 0; k0 -= kBlock) {
      const index_t nb = std::min(kBlock, n - k0);
      trsm_diag_block(solve_upper, opa, unit_diag, a, b, k0, nb);
      if (k0 == 0) break;
      // Rows [0, k0) -= U(0:k0, blk) * X(blk).
      const Matrix<T> xblk = b.block(k0, 0, nb, rhs);
      Matrix<T> xrest = b.block(0, 0, k0, rhs);
      if (opa == Op::None) {
        const Matrix<T> panel = a.block(0, k0, k0, nb);
        gemm(Op::None, Op::None, T(-1), panel, xblk, T(1), xrest);
      } else {
        const Matrix<T> panel = a.block(k0, 0, nb, k0);
        gemm(Op::Trans, Op::None, T(-1), panel, xblk, T(1), xrest);
      }
      for (index_t j = 0; j < rhs; ++j)
        std::copy_n(xrest.col(j), k0, b.col(j));
    }
  } else {
    for (index_t k0 = 0; k0 < n; k0 += kBlock) {
      const index_t nb = std::min(kBlock, n - k0);
      trsm_diag_block(solve_upper, opa, unit_diag, a, b, k0, nb);
      const index_t rest = n - (k0 + nb);
      if (rest == 0) break;
      // Rows [k0+nb, n) -= L(rest, blk) * X(blk).
      const Matrix<T> xblk = b.block(k0, 0, nb, rhs);
      Matrix<T> xrest = b.block(k0 + nb, 0, rest, rhs);
      if (opa == Op::None) {
        const Matrix<T> panel = a.block(k0 + nb, k0, rest, nb);
        gemm(Op::None, Op::None, T(-1), panel, xblk, T(1), xrest);
      } else {
        const Matrix<T> panel = a.block(k0, k0 + nb, nb, rest);
        gemm(Op::Trans, Op::None, T(-1), panel, xblk, T(1), xrest);
      }
      for (index_t j = 0; j < rhs; ++j)
        std::copy_n(xrest.col(j), rest, b.col(j) + k0 + nb);
    }
  }
}

template <typename T>
void gemm_panel(index_t m, index_t n, index_t k, T alpha, const T* a,
                index_t lda, const T* b, index_t ldb, T* c, index_t ldc) {
  if (m == 0 || n == 0 || k == 0 || alpha == T(0)) return;
  // Fold alpha into a scaled copy of B (the panel operand is k-by-n with
  // k = one block, so the copy is O(kn) against the O(mnk) multiply).
  std::vector<T> bscaled;
  const T* bp = b;
  index_t ldb_eff = ldb;
  if (alpha != T(1)) {
    bscaled.resize(std::size_t(k) * std::size_t(n));
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < k; ++i)
        bscaled[std::size_t(i) + std::size_t(j) * std::size_t(k)] =
            alpha * b[i + j * ldb];
    bp = bscaled.data();
    ldb_eff = k;
  }
#pragma omp parallel for schedule(dynamic, 1) if (n > kNB)
  for (index_t j0 = 0; j0 < n; j0 += kNB) {
    const index_t nb = std::min(kNB, n - j0);
    for (index_t k0 = 0; k0 < k; k0 += kKB) {
      const index_t kb = std::min(kKB, k - k0);
      for (index_t i0 = 0; i0 < m; i0 += kMB) {
        const index_t mb = std::min(kMB, m - i0);
        gemm_block(mb, kb, nb, a + i0 + k0 * lda, lda,
                   bp + k0 + j0 * ldb_eff, ldb_eff, c + i0 + j0 * ldc, ldc);
      }
    }
  }
}

template <typename T>
void syrk_lower(T alpha, const Matrix<T>& a, T beta, Matrix<T>& c) {
  const index_t n = a.rows(), k = a.cols();
  require(c.rows() == n && c.cols() == n, "syrk: C must be n-by-n");
#pragma omp parallel for schedule(dynamic, 8)
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      double s = 0;
      for (index_t t = 0; t < k; ++t)
        s += double(a(i, t)) * double(a(j, t));
      c(i, j) = T(alpha * T(s) + beta * c(i, j));
    }
  }
}

template <typename T>
double nrm2(index_t n, const T* x) {
  double s = 0;
  for (index_t i = 0; i < n; ++i) s += double(x[i]) * double(x[i]);
  return std::sqrt(s);
}

template <typename T>
double dot(index_t n, const T* x, const T* y) {
  double s = 0;
  for (index_t i = 0; i < n; ++i) s += double(x[i]) * double(y[i]);
  return s;
}

template <typename T>
void axpy(index_t n, T alpha, const T* x, T* y) {
  for (index_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

template void gemm<float>(Op, Op, float, const Matrix<float>&,
                          const Matrix<float>&, float, Matrix<float>&);
template void gemm<double>(Op, Op, double, const Matrix<double>&,
                           const Matrix<double>&, double, Matrix<double>&);
template Matrix<float> matmul<float>(const Matrix<float>&,
                                     const Matrix<float>&);
template Matrix<double> matmul<double>(const Matrix<double>&,
                                       const Matrix<double>&);
template void gemv<float>(Op, float, const Matrix<float>&, const float*, float,
                          float*);
template void gemv<double>(Op, double, const Matrix<double>&, const double*,
                           double, double*);
template void trsm<float>(bool, Op, bool, float, const Matrix<float>&,
                          Matrix<float>&);
template void trsm<double>(bool, Op, bool, double, const Matrix<double>&,
                           Matrix<double>&);
template void gemm_panel<float>(index_t, index_t, index_t, float, const float*,
                                index_t, const float*, index_t, float*,
                                index_t);
template void gemm_panel<double>(index_t, index_t, index_t, double,
                                 const double*, index_t, const double*,
                                 index_t, double*, index_t);
template void syrk_lower<float>(float, const Matrix<float>&, float,
                                Matrix<float>&);
template void syrk_lower<double>(double, const Matrix<double>&, double,
                                 Matrix<double>&);
template double nrm2<float>(index_t, const float*);
template double nrm2<double>(index_t, const double*);
template double dot<float>(index_t, const float*, const float*);
template double dot<double>(index_t, const double*, const double*);
template void axpy<float>(index_t, float, const float*, float*);
template void axpy<double>(index_t, double, const double*, double*);

}  // namespace gofmm::la
