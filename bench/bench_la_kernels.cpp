// google-benchmark microbenchmarks of the dense linear-algebra substrate.
//
// GOFMM's absolute efficiency "is portable and only relies on
// BLAS/LAPACK" (paper §4); these report what this repo's own kernels
// sustain on the host, which bounds every GFs column in the tables.
#include <benchmark/benchmark.h>

#include <cmath>

#include "la/blas.hpp"
#include "la/flops.hpp"
#include "la/lapack.hpp"
#include "la/ldlt.hpp"
#include "la/qr.hpp"

namespace {

using gofmm::index_t;
using gofmm::la::Matrix;

void BM_GemmFloat(benchmark::State& state) {
  const index_t n = state.range(0);
  auto a = Matrix<float>::random_normal(n, n, 1);
  auto b = Matrix<float>::random_normal(n, n, 2);
  Matrix<float> c(n, n);
  for (auto _ : state) {
    gofmm::la::gemm(gofmm::la::Op::None, gofmm::la::Op::None, 1.0f, a, b,
                    0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * double(n) * double(n) * double(n) * double(state.iterations()) *
          1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmFloat)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmDouble(benchmark::State& state) {
  const index_t n = state.range(0);
  auto a = Matrix<double>::random_normal(n, n, 1);
  auto b = Matrix<double>::random_normal(n, n, 2);
  Matrix<double> c(n, n);
  for (auto _ : state) {
    gofmm::la::gemm(gofmm::la::Op::None, gofmm::la::Op::None, 1.0, a, b, 0.0,
                    c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * double(n) * double(n) * double(n) * double(state.iterations()) *
          1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmDouble)->Arg(128)->Arg(256)->Arg(512);

void BM_Geqp3(benchmark::State& state) {
  const index_t m = 2 * state.range(0);
  const index_t n = state.range(0);
  auto a = Matrix<double>::random_normal(m, n, 3);
  for (auto _ : state) {
    auto qr = gofmm::la::geqp3(a, 0.0, 0);
    benchmark::DoNotOptimize(qr.rank);
  }
}
BENCHMARK(BM_Geqp3)->Arg(64)->Arg(128)->Arg(256);

void BM_Geqp3EarlyExit(benchmark::State& state) {
  // Rank-32 matrix: the adaptive QR should stop ~32 regardless of n.
  const index_t n = state.range(0);
  auto b = Matrix<double>::random_normal(2 * n, 32, 4);
  auto c = Matrix<double>::random_normal(32, n, 5);
  auto a = gofmm::la::matmul(b, c);
  for (auto _ : state) {
    auto qr = gofmm::la::geqp3(a, 1e-10, 0);
    benchmark::DoNotOptimize(qr.rank);
  }
}
BENCHMARK(BM_Geqp3EarlyExit)->Arg(128)->Arg(256);

void BM_Geqp3Skel(benchmark::State& state) {
  // The SKEL shape (paper §2.2): a sampled (2n+32)-by-n off-diagonal
  // Gaussian-kernel block, n points against 2n+32 well-separated ones,
  // factored to the paper's default tolerance 1e-5. GF/s uses the same
  // 2·m·n·rank model as core.skel_gflops.
  const index_t n = state.range(0);
  const index_t m = 2 * n + 32;
  const auto src = Matrix<double>::random_normal(3, n, 10);
  const auto dst = Matrix<double>::random_normal(3, m, 11);
  Matrix<double> a(m, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      double d2 = 0;
      for (index_t t = 0; t < 3; ++t) {
        const double d = dst(t, i) + (t == 0 ? 4.0 : 0.0) - src(t, j);
        d2 += d * d;
      }
      a(i, j) = std::exp(-d2 / 8.0);
    }
  index_t rank = 0;
  for (auto _ : state) {
    auto qr = gofmm::la::geqp3(a, 1e-5, 0);
    rank = qr.rank;
    benchmark::DoNotOptimize(qr.r.data());
  }
  state.counters["rank"] = double(rank);
  state.counters["GFLOP/s"] = benchmark::Counter(
      double(gofmm::la::FlopCounter::qr_flops(m, n, rank)) *
          double(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Geqp3Skel)->Arg(128)->Arg(150);

void BM_Trsm(benchmark::State& state) {
  const index_t n = state.range(0);
  auto a = Matrix<double>::random_normal(n, n, 6);
  for (index_t i = 0; i < n; ++i) a(i, i) = 4.0 + std::abs(a(i, i));
  auto b0 = Matrix<double>::random_normal(n, 64, 7);
  for (auto _ : state) {
    Matrix<double> b = b0;
    gofmm::la::trsm(true, gofmm::la::Op::None, false, 1.0, a, b);
    benchmark::DoNotOptimize(b.data());
  }
}
BENCHMARK(BM_Trsm)->Arg(128)->Arg(256);

void BM_Potrf(benchmark::State& state) {
  const index_t n = state.range(0);
  auto g = Matrix<double>::random_normal(n, n, 8);
  Matrix<double> spd(n, n);
  gofmm::la::gemm(gofmm::la::Op::None, gofmm::la::Op::Trans, 1.0, g, g, 0.0,
                  spd);
  for (index_t i = 0; i < n; ++i) spd(i, i) += double(n);
  for (auto _ : state) {
    Matrix<double> a = spd;
    benchmark::DoNotOptimize(gofmm::la::potrf_lower(a));
  }
}
BENCHMARK(BM_Potrf)->Arg(128)->Arg(256)->Arg(512);

void BM_Getrf(benchmark::State& state) {
  // The capacitance/rotated-block hot path of the factorization engine:
  // blocked right-looking LU with the gemm_panel trailing downdate.
  const index_t n = state.range(0);
  auto a0 = Matrix<double>::random_normal(n, n, 9);
  std::vector<index_t> piv;
  for (auto _ : state) {
    Matrix<double> a = a0;
    benchmark::DoNotOptimize(gofmm::la::getrf(a, piv));
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 / 3.0 * double(n) * double(n) * double(n) *
          double(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Getrf)->Arg(128)->Arg(256)->Arg(512);

void BM_Sytrf(benchmark::State& state) {
  // Pivoted Bunch-Kaufman LDLᵀ — the indefinite-diagonal fallback of the
  // factorization engine; blocked right-looking with LASYF panels and the
  // gemm_panel trailing downdate, same treatment as BM_Potrf/BM_Getrf.
  const index_t n = state.range(0);
  auto g = Matrix<double>::random_normal(n, n, 13);
  Matrix<double> indef(n, n);
  gofmm::la::gemm(gofmm::la::Op::None, gofmm::la::Op::Trans, 1.0, g, g, 0.0,
                  indef);
  for (index_t i = 0; i < n; ++i) indef(i, i) -= double(n) / 2.0;
  std::vector<index_t> ipiv;
  for (auto _ : state) {
    Matrix<double> a = indef;
    benchmark::DoNotOptimize(gofmm::la::sytrf_lower(a, ipiv));
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      1.0 / 3.0 * double(n) * double(n) * double(n) *
          double(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Sytrf)->Arg(128)->Arg(256)->Arg(512);

void BM_Geqrf(benchmark::State& state) {
  // Blocked Householder QR of a tall basis — the per-node rotation the
  // orthogonal-ULV engine computes once at construction.
  const index_t n = state.range(0);
  auto a0 = Matrix<double>::random_normal(2 * n, n, 10);
  std::vector<double> tau;
  for (auto _ : state) {
    Matrix<double> a = a0;
    gofmm::la::geqrf(a, tau);
    benchmark::DoNotOptimize(a.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      double(gofmm::la::geqrf_flops(2 * n, n)) * double(state.iterations()) *
          1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Geqrf)->Arg(64)->Arg(128)->Arg(256);

void BM_OrmqrLeft(benchmark::State& state) {
  // Applying the stored rotations: the engine's solve sweeps (rhs-wide)
  // and construction-time block rotations both run through ormqr_left.
  const index_t m = 2 * state.range(0);
  const index_t r = state.range(0);
  auto a = Matrix<double>::random_normal(m, r, 11);
  std::vector<double> tau;
  gofmm::la::geqrf(a, tau);
  auto c0 = Matrix<double>::random_normal(m, m, 12);
  for (auto _ : state) {
    Matrix<double> c = c0;
    gofmm::la::ormqr_left(gofmm::la::Op::Trans, a, tau, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      double(gofmm::la::ormqr_flops(m, r, m)) * double(state.iterations()) *
          1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OrmqrLeft)->Arg(64)->Arg(128)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
