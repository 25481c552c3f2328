// Unit tests for the solve service (operator cache, cross-request
// batching, backpressure, workspace pooling, metrics).
//
// The cache/batching/admission mechanics are tested against a synthetic
// diagonal operator — builds are cheap and deterministic, results are
// computable in closed form, and every test in that group is TSan-clean
// (the CI tsan job runs this binary). End-to-end batching semantics
// (bit-identity of coalesced vs solo solves, λ-retune on a real ULV
// factorization) run against a real GOFMM compression and are skipped
// under TSan like the other zoo-sized suites.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <future>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "core/gofmm.hpp"
#include "matrices/zoo.hpp"
#include "service/operator_cache.hpp"
#include "service/service_stats.hpp"
#include "service/solve_service.hpp"

#if defined(__SANITIZE_THREAD__)
#define GOFMM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GOFMM_TSAN 1
#endif
#endif

// ---- global allocation counter ---------------------------------------------
// Counts every operator new in the binary; the workspace steady-state test
// asserts the count does not move across capacity-retaining reuse.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gofmm::service {
namespace {

using std::chrono::milliseconds;
using std::chrono::microseconds;

// ---- synthetic diagonal operator -------------------------------------------

struct BuildCounters {
  std::atomic<int> builds{0};
  std::atomic<int> factorizes{0};
  std::atomic<int> refactorizes{0};
};

// Diagonal SPD "compression": apply = D w, solve = (D+λI)⁻¹ b, logdet =
// Σ log(d_i+λ). The diagonal derives from the dataset id, so distinct
// datasets yield distinct answers.
class DiagOp final : public CompressedOperator<double>,
                     public Factorizable<double> {
 public:
  DiagOp(index_t n, std::uint64_t bytes, std::uint64_t seed,
         std::shared_ptr<BuildCounters> counters)
      : n_(n), bytes_(bytes), counters_(std::move(counters)) {
    d_.resize(std::size_t(n));
    for (index_t i = 0; i < n; ++i)
      d_[std::size_t(i)] = 1.0 + 0.25 * double((seed + std::uint64_t(i)) % 7);
  }

  index_t size() const override { return n_; }
  std::string name() const override { return "diag"; }
  std::uint64_t memory_bytes() const override { return bytes_; }
  OperatorStats operator_stats() const override { return {}; }
  Factorizable<double>* factorizable() override { return this; }
  const Factorizable<double>* factorizable() const override { return this; }

  void factorize(double lambda, FactorizeOptions) override {
    counters_->factorizes.fetch_add(1);
    lambda_ = lambda;
    factorized_ = true;
  }
  void refactorize(double lambda) override {
    counters_->refactorizes.fetch_add(1);
    lambda_ = lambda;
  }
  bool factorized() const override { return factorized_; }

  la::Matrix<double> solve(const la::Matrix<double>& b,
                           const SolveOptions&) const override {
    check<StateError>(factorized_, "diag: solve before factorize");
    la::Matrix<double> x(b.rows(), b.cols());
    for (index_t j = 0; j < b.cols(); ++j)
      for (index_t i = 0; i < b.rows(); ++i)
        x(i, j) = b(i, j) / (d_[std::size_t(i)] + lambda_);
    return x;
  }
  double logdet() const override {
    check<StateError>(factorized_, "diag: logdet before factorize");
    double s = 0;
    for (double d : d_) s += std::log(d + lambda_);
    return s;
  }
  FactorizationStats factorization_stats() const override {
    FactorizationStats s;
    s.memory_bytes = 0;
    s.regularization = lambda_;
    s.num_refactorizations = index_t(counters_->refactorizes.load());
    return s;
  }

 protected:
  la::Matrix<double> do_apply(const la::Matrix<double>& w,
                              EvalWorkspace<double>& ws) const override {
    la::Matrix<double> u(w.rows(), w.cols());
    for (index_t j = 0; j < w.cols(); ++j)
      for (index_t i = 0; i < w.rows(); ++i)
        u(i, j) = d_[std::size_t(i)] * w(i, j);
    ws.flops.fetch_add(std::uint64_t(w.rows()) * std::uint64_t(w.cols()),
                       std::memory_order_relaxed);
    return u;
  }

 private:
  index_t n_;
  std::vector<double> d_;
  std::uint64_t bytes_;
  std::shared_ptr<BuildCounters> counters_;
  double lambda_ = 0;      // written under the cache's exclusive entry lock
  bool factorized_ = false;
};

constexpr index_t kDiagN = 64;

OperatorCache<double>::Builder diag_builder(
    std::shared_ptr<BuildCounters> counters, std::uint64_t bytes = 1000,
    milliseconds build_delay = milliseconds(0)) {
  return [counters, bytes,
          build_delay](const OperatorSpec& spec)
             -> std::shared_ptr<CompressedOperator<double>> {
    counters->builds.fetch_add(1);
    if (build_delay.count() > 0) std::this_thread::sleep_for(build_delay);
    const std::uint64_t seed = std::hash<std::string>{}(spec.dataset);
    return std::make_shared<DiagOp>(kDiagN, bytes, seed, counters);
  };
}

OperatorSpec diag_spec(const std::string& dataset, double lambda) {
  OperatorSpec spec;
  spec.dataset = dataset;
  spec.lambda = lambda;
  return spec;
}

// Closed-form reference for DiagOp solves.
la::Matrix<double> diag_reference_solve(const std::string& dataset,
                                        double lambda,
                                        const la::Matrix<double>& b) {
  const std::uint64_t seed = std::hash<std::string>{}(dataset);
  la::Matrix<double> x(b.rows(), b.cols());
  for (index_t j = 0; j < b.cols(); ++j)
    for (index_t i = 0; i < b.rows(); ++i) {
      const double d = 1.0 + 0.25 * double((seed + std::uint64_t(i)) % 7);
      x(i, j) = b(i, j) / (d + lambda);
    }
  return x;
}

// ---- operator cache ---------------------------------------------------------

TEST(OperatorCache, StampedeOnColdKeyBuildsExactlyOnce) {
  auto counters = std::make_shared<BuildCounters>();
  // 30 ms build: every thread arrives while the winner is still building.
  OperatorCache<double> cache(diag_builder(counters, 1000, milliseconds(30)),
                              std::uint64_t(1) << 30);
  const OperatorSpec spec = diag_spec("stampede", 0.5);

  constexpr int kThreads = 32;
  std::vector<std::shared_ptr<OperatorCache<double>::Entry>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] { got[std::size_t(t)] = cache.acquire(spec); });
  for (auto& th : threads) th.join();

  EXPECT_EQ(counters->builds.load(), 1);  // single-flight: one build total
  EXPECT_EQ(counters->factorizes.load(), 1);
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(got[std::size_t(t)].get(), got[0].get());

  const CacheCounters c = cache.counters();
  EXPECT_EQ(c.builds, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.hits + c.misses + c.single_flight_waits, std::uint64_t(kThreads));
  EXPECT_EQ(c.entries, 1u);
}

TEST(OperatorCache, TwoPrecisionPoliciesSingleFlightIndependently) {
  auto counters = std::make_shared<BuildCounters>();
  // 30 ms build: all threads of BOTH policies arrive mid-build. The two
  // precisions must resolve to two distinct keys — one build each — while
  // single-flight still holds within each key.
  OperatorCache<double> cache(diag_builder(counters, 1000, milliseconds(30)),
                              std::uint64_t(1) << 30);
  OperatorSpec f64 = diag_spec("policy", 0.5);
  OperatorSpec f32 = f64;
  f32.factorize.precision = Precision::MixedF32;

  constexpr int kPerPolicy = 16;
  std::vector<std::shared_ptr<OperatorCache<double>::Entry>> got(2 *
                                                                 kPerPolicy);
  std::vector<std::thread> threads;
  threads.reserve(got.size());
  for (int t = 0; t < kPerPolicy; ++t) {
    threads.emplace_back(
        [&, t] { got[std::size_t(t)] = cache.acquire(f64); });
    threads.emplace_back([&, t] {
      got[std::size_t(kPerPolicy + t)] = cache.acquire(f32);
    });
  }
  for (auto& th : threads) th.join();

  // Exactly one build per policy — never one shared build for both.
  EXPECT_EQ(counters->builds.load(), 2);
  EXPECT_EQ(counters->factorizes.load(), 2);
  for (int t = 1; t < kPerPolicy; ++t) {
    EXPECT_EQ(got[std::size_t(t)].get(), got[0].get());
    EXPECT_EQ(got[std::size_t(kPerPolicy + t)].get(),
              got[std::size_t(kPerPolicy)].get());
  }
  EXPECT_NE(got[0].get(), got[std::size_t(kPerPolicy)].get());

  const CacheCounters c = cache.counters();
  EXPECT_EQ(c.builds, 2u);
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.hits + c.misses + c.single_flight_waits,
            std::uint64_t(2 * kPerPolicy));
  EXPECT_EQ(c.entries, 2u);
}

TEST(OperatorCache, BuildFailurePropagatesToEveryWaiterThenRetries) {
  auto counters = std::make_shared<BuildCounters>();
  std::atomic<bool> fail{true};
  OperatorCache<double> cache(
      [&](const OperatorSpec& spec)
          -> std::shared_ptr<CompressedOperator<double>> {
        counters->builds.fetch_add(1);
        std::this_thread::sleep_for(milliseconds(20));
        if (fail.load()) throw StateError("dataset unavailable");
        return std::make_shared<DiagOp>(
            kDiagN, 1000, std::hash<std::string>{}(spec.dataset), counters);
      },
      std::uint64_t(1) << 30);
  const OperatorSpec spec = diag_spec("flaky", 0.0);

  std::atomic<int> threw{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&] {
      try {
        (void)cache.acquire(spec);
      } catch (const StateError&) {
        threw.fetch_add(1);
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(threw.load(), 8);  // winner rethrows, waiters get the same error
  EXPECT_EQ(cache.counters().entries, 0u);

  // A failed build leaves no poisoned state: the next acquire retries.
  fail.store(false);
  EXPECT_NE(cache.acquire(spec), nullptr);
  EXPECT_EQ(cache.counters().entries, 1u);
}

TEST(OperatorCache, EvictsLeastRecentlyUsedOverByteBudget) {
  auto counters = std::make_shared<BuildCounters>();
  // 1000 bytes/entry under a 2500-byte budget: two entries fit.
  OperatorCache<double> cache(diag_builder(counters, 1000), 2500);
  auto a = cache.acquire(diag_spec("a", 0.0));
  (void)cache.acquire(diag_spec("b", 0.0));
  (void)cache.acquire(diag_spec("c", 0.0));  // evicts "a" (least recent)

  const std::string key_a = diag_spec("a", 0.0).structure_key();
  EXPECT_FALSE(cache.contains(key_a));
  EXPECT_TRUE(cache.contains(diag_spec("b", 0.0).structure_key()));
  EXPECT_TRUE(cache.contains(diag_spec("c", 0.0).structure_key()));
  CacheCounters c = cache.counters();
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.entries, 2u);
  EXPECT_LE(c.resident_bytes, 2500u);

  // In-flight holders of an evicted entry keep a working operator.
  EXPECT_EQ(a->op->size(), kDiagN);

  // Touching "b" promotes it: the next build evicts "c", not "b".
  (void)cache.acquire(diag_spec("b", 0.0));
  (void)cache.acquire(diag_spec("d", 0.0));
  EXPECT_TRUE(cache.contains(diag_spec("b", 0.0).structure_key()));
  EXPECT_FALSE(cache.contains(diag_spec("c", 0.0).structure_key()));
}

TEST(OperatorCache, EvictionUnderConcurrentLoadStaysConsistent) {
  auto counters = std::make_shared<BuildCounters>();
  OperatorCache<double> cache(diag_builder(counters, 1000), 2500);
  const char* datasets[] = {"w", "x", "y", "z"};

  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&, t] {
      for (int it = 0; it < 50; ++it) {
        const OperatorSpec spec =
            diag_spec(datasets[(t + it) % 4], 0.25 * double(it % 3));
        cache.with_operator(spec, [&](OperatorCache<double>::Entry& e) {
          // Use the operator under the shared lock, as the service does.
          la::Matrix<double> b(e.op->size(), 1, 1.0);
          la::Matrix<double> x = e.op->factorizable()->solve(b);
          // λ is pinned: the solve must reflect this request's λ exactly.
          const std::uint64_t seed =
              std::hash<std::string>{}(spec.dataset);
          const double d0 = 1.0 + 0.25 * double(seed % 7);
          ASSERT_EQ(x(0, 0), 1.0 / (d0 + spec.lambda));
        });
      }
    });
  for (auto& th : threads) th.join();

  const CacheCounters c = cache.counters();
  EXPECT_GT(c.evictions, 0u);  // budget held 2 of 4 working sets
  EXPECT_LE(c.entries, 3u);    // 2 resident + possibly one in-flight insert
  EXPECT_EQ(c.misses, c.builds);
  EXPECT_GT(c.retunes, 0u);
}

// ---- λ-retune fast path -----------------------------------------------------

TEST(SolveService, LambdaRetuneNeverRebuilds) {
  auto counters = std::make_shared<BuildCounters>();
  typename SolveService<double>::Options opts;
  opts.batch_window = microseconds(500);
  SolveService<double> svc(diag_builder(counters), opts);

  const la::Matrix<double> b = la::Matrix<double>::random_normal(kDiagN, 2, 3);
  for (double lambda : {0.5, 2.0, 0.125, 2.0, 0.5}) {
    ServiceResult<double> res = svc.solve(diag_spec("ridge", lambda), b);
    const la::Matrix<double> want = diag_reference_solve("ridge", lambda, b);
    for (index_t j = 0; j < b.cols(); ++j)
      for (index_t i = 0; i < b.rows(); ++i)
        ASSERT_EQ(res.values(i, j), want(i, j));
  }

  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.cache.builds, 1u);            // ONE compression+factorization
  EXPECT_EQ(counters->factorizes.load(), 1);  // never a full rebuild
  EXPECT_EQ(s.cache.retunes, 4u);           // every λ change refactorized
  EXPECT_EQ(counters->refactorizes.load(), 4);
  EXPECT_EQ(s.completed, 5u);
}

// ---- batching ---------------------------------------------------------------

TEST(SolveService, ConcurrentRequestsCoalesceIntoOneSweep) {
  auto counters = std::make_shared<BuildCounters>();
  typename SolveService<double>::Options opts;
  opts.batch_window = milliseconds(50);  // wide window: everything coalesces
  SolveService<double> svc(diag_builder(counters), opts);
  const OperatorSpec spec = diag_spec("batch", 1.0);

  std::vector<la::Matrix<double>> rhs;
  std::vector<std::future<ServiceResult<double>>> futs;
  for (int r = 0; r < 8; ++r) {
    rhs.push_back(la::Matrix<double>::random_normal(kDiagN, 2, 100 + r));
    futs.push_back(svc.submit_solve(spec, rhs.back()));
  }
  for (int r = 0; r < 8; ++r) {
    ServiceResult<double> res = futs[std::size_t(r)].get();
    EXPECT_EQ(res.batch_cols, 16);  // all 8 requests rode one 16-wide sweep
    const la::Matrix<double> want =
        diag_reference_solve("batch", 1.0, rhs[std::size_t(r)]);
    for (index_t j = 0; j < want.cols(); ++j)
      for (index_t i = 0; i < want.rows(); ++i)
        ASSERT_EQ(res.values(i, j), want(i, j));
    ASSERT_EQ(res.residuals.size(), 2u);
    EXPECT_LT(res.residuals[0], 1e-12);  // diag solve is exact
  }

  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.batched_columns, 16u);
  EXPECT_EQ(s.batch_size_log2[4], 1u);  // 16 columns → bucket log2(16)=4
  EXPECT_EQ(s.avg_batch_cols(), 16.0);
  EXPECT_EQ(s.latency_samples, 8u);
  EXPECT_GT(s.latency_p50_s, 0.0);
  EXPECT_GE(s.latency_p99_s, s.latency_p50_s);
}

TEST(SolveService, DifferentLambdasFormSeparateBatches) {
  auto counters = std::make_shared<BuildCounters>();
  typename SolveService<double>::Options opts;
  opts.batch_window = milliseconds(30);
  SolveService<double> svc(diag_builder(counters), opts);

  const la::Matrix<double> b = la::Matrix<double>::random_normal(kDiagN, 1, 5);
  auto f1 = svc.submit_solve(diag_spec("lam", 0.5), b);
  auto f2 = svc.submit_solve(diag_spec("lam", 1.5), b);
  const la::Matrix<double> x1 = f1.get().values;
  const la::Matrix<double> x2 = f2.get().values;
  for (index_t i = 0; i < kDiagN; ++i) {
    ASSERT_EQ(x1(i, 0), diag_reference_solve("lam", 0.5, b)(i, 0));
    ASSERT_EQ(x2(i, 0), diag_reference_solve("lam", 1.5, b)(i, 0));
  }
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.batches, 2u);       // λ is part of the batch key
  EXPECT_EQ(s.cache.builds, 1u);  // but not of the structure key
}

TEST(SolveService, LogdetRequestsCoalesceAndAgree) {
  auto counters = std::make_shared<BuildCounters>();
  typename SolveService<double>::Options opts;
  opts.batch_window = milliseconds(50);
  SolveService<double> svc(diag_builder(counters), opts);
  const OperatorSpec spec = diag_spec("logdet", 0.75);

  std::vector<std::future<ServiceResult<double>>> futs;
  for (int r = 0; r < 4; ++r) futs.push_back(svc.submit_logdet(spec));
  const std::uint64_t seed = std::hash<std::string>{}("logdet");
  double want = 0;
  for (index_t i = 0; i < kDiagN; ++i)
    want += std::log(1.0 + 0.25 * double((seed + std::uint64_t(i)) % 7) + 0.75);
  for (auto& f : futs) {
    const ServiceResult<double> res = f.get();
    EXPECT_DOUBLE_EQ(res.logdet, want);
    EXPECT_TRUE(res.values.empty());
  }
  EXPECT_EQ(svc.stats().batches, 1u);
}

TEST(SolveService, ShapeMismatchFailsOnlyTheBadRequest) {
  auto counters = std::make_shared<BuildCounters>();
  typename SolveService<double>::Options opts;
  opts.batch_window = milliseconds(30);
  SolveService<double> svc(diag_builder(counters), opts);
  const OperatorSpec spec = diag_spec("shapes", 0.0);

  const la::Matrix<double> good = la::Matrix<double>::random_normal(kDiagN, 1, 9);
  const la::Matrix<double> bad(kDiagN + 3, 1, 1.0);
  auto fg = svc.submit_solve(spec, good);
  auto fb = svc.submit_solve(spec, bad);
  EXPECT_THROW((void)fb.get(), DimensionError);
  EXPECT_EQ(fg.get().values.rows(), kDiagN);  // the batch still served it
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.failed, 1u);
}

// ---- admission control ------------------------------------------------------

TEST(SolveService, OverAdmissionThrowsTypedOverloadedError) {
  auto counters = std::make_shared<BuildCounters>();
  typename SolveService<double>::Options opts;
  opts.max_pending = 2;
  opts.batch_window = milliseconds(100);  // hold requests open
  SolveService<double> svc(diag_builder(counters), opts);
  const OperatorSpec spec = diag_spec("pressure", 0.0);
  const la::Matrix<double> b(kDiagN, 1, 1.0);

  auto f1 = svc.submit_solve(spec, b);
  auto f2 = svc.submit_solve(spec, b);
  EXPECT_THROW((void)svc.submit_solve(spec, b), OverloadedError);
  // OverloadedError is a gofmm::Error, so generic handlers catch it too.
  try {
    (void)svc.submit_solve(spec, b);
    FAIL() << "expected OverloadedError";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("overloaded"), std::string::npos);
  }

  (void)f1.get();
  (void)f2.get();
  svc.drain();
  // The queue drained: admission opens again.
  EXPECT_NO_THROW((void)svc.submit_solve(spec, b).get());
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.rejected, 2u);
  EXPECT_EQ(s.queue_depth, 0u);
}

// ---- concurrent hammer (the TSan target) ------------------------------------

TEST(SolveService, ConcurrentClientsMixedKindsAllComplete) {
  auto counters = std::make_shared<BuildCounters>();
  typename SolveService<double>::Options opts;
  opts.batch_window = milliseconds(1);
  opts.num_workers = 4;
  SolveService<double> svc(diag_builder(counters), opts);

  constexpr int kClients = 8;
  constexpr int kPerClient = 20;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t)
    clients.emplace_back([&, t] {
      for (int r = 0; r < kPerClient; ++r) {
        const OperatorSpec spec =
            diag_spec(t % 2 == 0 ? "ham-a" : "ham-b", r % 3 == 0 ? 0.5 : 1.0);
        ServiceResult<double> res;
        if (r % 5 == 4) {
          res = svc.submit_logdet(spec).get();
          if (std::isfinite(res.logdet)) ok.fetch_add(1);
        } else if (r % 5 == 3) {
          const auto w = la::Matrix<double>::random_normal(kDiagN, 1, t);
          res = svc.submit_matvec(spec, w).get();
          if (res.values.rows() == kDiagN) ok.fetch_add(1);
        } else {
          const auto b =
              la::Matrix<double>::random_normal(kDiagN, 2, 10 * t + r);
          res = svc.submit_solve(spec, b).get();
          const auto want = diag_reference_solve(spec.dataset, spec.lambda, b);
          if (res.values(0, 0) == want(0, 0)) ok.fetch_add(1);
        }
      }
    });
  for (auto& th : clients) th.join();
  svc.drain();

  EXPECT_EQ(ok.load(), kClients * kPerClient);
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.completed, std::uint64_t(kClients * kPerClient));
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_EQ(s.cache.builds, 2u);  // two structures, any number of λs
  EXPECT_LE(s.batches, s.requests);
}

// ---- workspace pooling ------------------------------------------------------

TEST(EvalWorkspace, ResetRetainsCapacityAndSteadyStateNeverAllocates) {
  EvalWorkspace<double> ws;
  ws.x.resize(512, 8);
  ws.y.resize(512, 8);
  ws.up.resize(32);
  for (auto& m : ws.up) m.resize(16, 8);
  ws.flops.store(123);

  const void* px = ws.x.data();
  const void* py = ws.y.data();
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int it = 0; it < 100; ++it) {
    ws.reset();
    // Same-shape reuse: Matrix::resize assigns in place under capacity.
    ws.x.resize(512, 8);
    ws.y.resize(512, 8);
    for (auto& m : ws.up) m.resize(16, 8);
    // Shrinking fits a fortiori.
    ws.x.resize(256, 4);
    ws.x.resize(512, 8);
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
  EXPECT_EQ(ws.x.data(), px);
  EXPECT_EQ(ws.y.data(), py);
  EXPECT_EQ(ws.flops.load(), 0u);  // reset cleared the counters
}

TEST(WorkspacePool, SequentialLeasesReuseOneWorkspace) {
  WorkspacePool<double> pool;
  const double* data = nullptr;
  for (int it = 0; it < 100; ++it) {
    auto lease = pool.lease();
    lease->x.resize(256, 4);
    if (data == nullptr) data = lease->x.data();
    EXPECT_EQ(lease->x.data(), data);  // capacity survived reset()+return
  }
  EXPECT_EQ(pool.created(), 1u);
  EXPECT_EQ(pool.idle(), 1u);
}

TEST(SolveService, SteadyStateSweepsKeepThePoolFlat) {
  auto counters = std::make_shared<BuildCounters>();
  typename SolveService<double>::Options opts;
  opts.batch_window = microseconds(100);
  SolveService<double> svc(diag_builder(counters), opts);
  const auto w = la::Matrix<double>::random_normal(kDiagN, 4, 1);
  for (int it = 0; it < 10; ++it) {
    (void)svc.submit_matvec(diag_spec("flat", 0.0), w).get();
    svc.drain();
  }
  // Sequential same-shape sweeps lease the same workspace every time.
  EXPECT_EQ(svc.workspaces().created(), 1u);
}

// ---- stats plumbing ---------------------------------------------------------

TEST(LatencyHistogram, PercentilesLandInTheRightBucket) {
  LatencyHistogram h;
  for (int i = 0; i < 90; ++i) h.record(1e-3);   // 1 ms
  for (int i = 0; i < 10; ++i) h.record(100e-3); // 100 ms tail
  EXPECT_EQ(h.count(), 100u);
  EXPECT_GT(h.percentile(50), 0.3e-3);
  EXPECT_LT(h.percentile(50), 3e-3);
  EXPECT_GT(h.percentile(99), 30e-3);
  EXPECT_LT(h.percentile(99), 300e-3);
}

TEST(OperatorSpec, StructureKeySeparatesEverythingButLambda) {
  const OperatorSpec base = diag_spec("ds", 0.5);
  OperatorSpec other = base;
  other.lambda = 7.0;
  EXPECT_EQ(base.structure_key(), other.structure_key());  // λ floats

  other = base;
  other.dataset = "ds2";
  EXPECT_NE(base.structure_key(), other.structure_key());
  other = base;
  other.config.leaf_size = 64;
  EXPECT_NE(base.structure_key(), other.structure_key());
  other = base;
  other.config.tolerance = 1e-7;
  EXPECT_NE(base.structure_key(), other.structure_key());
  other = base;
  other.factorize.elimination = Elimination::PivotedLdlt;
  EXPECT_NE(base.structure_key(), other.structure_key());
  // The bugfix this suite pins down: storage precision is part of the
  // structure key — a MixedF32 factorization must never alias a Double one.
  other = base;
  other.factorize.precision = Precision::MixedF32;
  EXPECT_NE(base.structure_key(), other.structure_key());
  // Execution-only knobs do not split the cache.
  other = base;
  other.config.num_workers = 3;
  other.config.engine = rt::Engine::LevelByLevel;
  EXPECT_EQ(base.structure_key(), other.structure_key());
}

// ---- spectral request kinds (Trace / Eigs) ---------------------------------

TEST(SolveServiceSpectral, EigsShiftSweepReusesOneCachedBuild) {
  auto counters = std::make_shared<BuildCounters>();
  typename SolveService<double>::Options opts;
  opts.batch_window = microseconds(200);
  SolveService<double> svc(diag_builder(counters), opts);

  // Eight shifts = eight λ values on ONE structure key: the cache must
  // compress+factorize once and serve every later shift with a retune —
  // the spectral subsystem's contract that a shift sweep is a λ sweep.
  const spectral::EigsOptions eo = spectral::EigsOptions().with_k(2);
  for (int i = 0; i < 8; ++i) {
    const double lambda = 0.1 * double(i + 1);
    const ServiceResult<double> res =
        svc.submit_eigs(diag_spec("sweep", lambda), eo).get();
    EXPECT_TRUE(res.eigs_converged) << "shift " << i;
    ASSERT_EQ(res.eigenvalues.size(), 2u);
    // DiagOp's spectrum is {1.0, 1.25, ..., 2.5}: shift-invert nearest
    // σ = −λ < 0 must find the two smallest distinct diagonal values.
    EXPECT_NEAR(res.eigenvalues[0], 1.0, 1e-10) << "shift " << i;
    EXPECT_NEAR(res.eigenvalues[1], 1.25, 1e-10) << "shift " << i;
    EXPECT_EQ(res.values.rows(), kDiagN);  // Ritz vectors ride in values
    ASSERT_EQ(res.residuals.size(), 2u);   // true eigenresiduals
    EXPECT_LT(res.residuals[0], 1e-12);
  }

  EXPECT_EQ(counters->builds.load(), 1);       // exactly one build...
  EXPECT_EQ(counters->factorizes.load(), 1);
  EXPECT_EQ(counters->refactorizes.load(), 7);  // ...then only retunes
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.cache.builds, 1u);
  EXPECT_EQ(s.cache.retunes, 7u);
  EXPECT_EQ(s.eigs_requests, 8u);
  EXPECT_EQ(s.requests, 8u);
  EXPECT_EQ(s.completed, 8u);
  // Stats coverage under the new kind: every eigs batch lands in the
  // histogram surfaces like any solve does.
  EXPECT_EQ(s.batches, 8u);
  EXPECT_GE(s.batch_size_log2[0], 8u);  // singleton batches: request count 1
  EXPECT_EQ(s.latency_samples, 8u);
  EXPECT_GT(s.latency_p50_s, 0.0);
}

TEST(SolveServiceSpectral, CoalescedIdenticalTraceRequestsShareOneEstimate) {
  auto counters = std::make_shared<BuildCounters>();
  typename SolveService<double>::Options opts;
  opts.batch_window = milliseconds(100);  // wide window: all four coalesce
  SolveService<double> svc(diag_builder(counters), opts);
  const OperatorSpec spec = diag_spec("trace", 0.0);
  const spectral::TraceOptions to = spectral::TraceOptions::defaults()
                                        .with_probes(16)
                                        .with_seed(77)
                                        .with_method(
                                            spectral::TraceMethod::Hutchinson);

  // Exact reference: Rademacher probes on a DIAGONAL operator hit the
  // trace exactly (zᵀDz = Σ dᵢzᵢ² = Σ dᵢ), so the estimate itself must
  // equal Σ dᵢ and the sample variance must vanish.
  double exact = 0;
  for (index_t i = 0; i < kDiagN; ++i) {
    const std::uint64_t seed = std::hash<std::string>{}(spec.dataset);
    exact += 1.0 + 0.25 * double((seed + std::uint64_t(i)) % 7);
  }

  std::vector<std::future<ServiceResult<double>>> futs;
  for (int r = 0; r < 4; ++r) futs.push_back(svc.submit_trace(spec, to));
  std::vector<ServiceResult<double>> results;
  for (auto& f : futs) results.push_back(f.get());

  for (const ServiceResult<double>& res : results) {
    EXPECT_NEAR(res.trace.estimate, exact, 1e-9 * exact);
    EXPECT_NEAR(res.trace.stddev, 0.0, 1e-9);
    EXPECT_EQ(res.trace.probes, 16);
    EXPECT_EQ(res.batch_cols, 4);  // rhs-free batches count requests
    // The batch key pins the seed, so coalesced identical requests share
    // ONE bit-reproducible computation — every field is bit-identical.
    EXPECT_EQ(res.trace.estimate, results[0].trace.estimate);
    EXPECT_EQ(res.trace.ci_low, results[0].trace.ci_low);
    EXPECT_EQ(res.trace.ci_high, results[0].trace.ci_high);
  }

  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.trace_requests, 4u);
  EXPECT_EQ(s.batches, 1u);                // the four requests coalesced
  EXPECT_GE(s.batch_size_log2[2], 1u);     // one sweep of 4 requests
  EXPECT_EQ(s.latency_samples, 4u);
  EXPECT_EQ(counters->builds.load(), 1);

  // A different seed is a different batch key: correctness over sharing.
  const ServiceResult<double> other =
      svc.submit_trace(spec, spectral::TraceOptions(to).with_seed(78)).get();
  EXPECT_NEAR(other.trace.estimate, exact, 1e-9 * exact);  // still exact
  EXPECT_EQ(svc.stats().batches, 2u);
}

TEST(SolveServiceSpectral, MixedSpectralKindsInOneWindowAllComplete) {
  auto counters = std::make_shared<BuildCounters>();
  typename SolveService<double>::Options opts;
  opts.batch_window = milliseconds(50);
  SolveService<double> svc(diag_builder(counters), opts);
  const OperatorSpec spec = diag_spec("mixed", 0.5);

  // Solve, logdet, trace, and eigs against one spec in one window: four
  // different kinds, four different batch keys, one cached operator.
  const la::Matrix<double> b = la::Matrix<double>::random_normal(kDiagN, 2, 3);
  auto fs = svc.submit_solve(spec, b);
  auto fl = svc.submit_logdet(spec);
  auto ft = svc.submit_trace(spec);
  auto fe = svc.submit_eigs(spec, spectral::EigsOptions().with_k(1));

  EXPECT_EQ(fs.get().values.cols(), 2);
  EXPECT_TRUE(std::isfinite(fl.get().logdet));
  EXPECT_GT(ft.get().trace.estimate, 0.0);
  const ServiceResult<double> eig = fe.get();
  EXPECT_TRUE(eig.eigs_converged);
  EXPECT_NEAR(eig.eigenvalues.at(0), 1.0, 1e-10);

  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.requests, 4u);
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.trace_requests, 1u);
  EXPECT_EQ(s.eigs_requests, 1u);
  EXPECT_EQ(s.cache.builds, 1u);  // four kinds, one operator
  EXPECT_EQ(counters->builds.load(), 1);
}

// ---- end-to-end against a real GOFMM compression ----------------------------

Config service_config() {
  return Config::defaults()
      .with_leaf_size(64)
      .with_max_rank(64)
      .with_tolerance(1e-7)
      .with_budget(0.0)
      .with_num_workers(2);
}

OperatorCache<double>::Builder zoo_builder(index_t n) {
  return [n](const OperatorSpec& spec)
             -> std::shared_ptr<CompressedOperator<double>> {
    auto k = std::shared_ptr<const SPDMatrix<double>>(
        zoo::make_matrix<double>(spec.dataset, n));
    return std::shared_ptr<CompressedOperator<double>>(
        CompressedMatrix<double>::compress_unique(std::move(k),
                                                  spec.config));
  };
}

TEST(SolveServiceGofmm, CoalescedSolveIsBitIdenticalToSoloSolves) {
#ifdef GOFMM_TSAN
  GTEST_SKIP() << "zoo matrices are too slow under TSan";
#endif
  typename SolveService<double>::Options opts;
  opts.batch_window = milliseconds(100);
  SolveService<double> svc(zoo_builder(512), opts);
  OperatorSpec spec = diag_spec("K04", 1e-3);
  spec.config = service_config();

  std::vector<la::Matrix<double>> rhs;
  for (int r = 0; r < 6; ++r)
    rhs.push_back(la::Matrix<double>::random_normal(512, 1 + r % 2, 40 + r));

  // Solo: one request per sweep (drain between submits), same cached op.
  std::vector<la::Matrix<double>> solo;
  for (const auto& b : rhs) {
    ServiceResult<double> res = svc.submit_solve(spec, b).get();
    svc.drain();
    EXPECT_EQ(res.batch_cols, b.cols());
    solo.push_back(std::move(res.values));
  }

  // Coalesced: submit everything inside one window.
  std::vector<std::future<ServiceResult<double>>> futs;
  for (const auto& b : rhs) futs.push_back(svc.submit_solve(spec, b));
  index_t total = 0;
  for (const auto& b : rhs) total += b.cols();
  for (std::size_t r = 0; r < rhs.size(); ++r) {
    ServiceResult<double> res = futs[r].get();
    EXPECT_EQ(res.batch_cols, total);  // the requests really coalesced
    const la::Matrix<double>& want = solo[r];
    ASSERT_EQ(res.values.rows(), want.rows());
    ASSERT_EQ(res.values.cols(), want.cols());
    for (index_t j = 0; j < want.cols(); ++j)
      for (index_t i = 0; i < want.rows(); ++i)
        ASSERT_EQ(res.values(i, j), want(i, j))
            << "batched solve diverged at (" << i << "," << j << ")";
    for (double r2 : res.residuals) EXPECT_LT(r2, 1e-4);
  }

  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.cache.builds, 1u);  // solo + coalesced shared one operator
  EXPECT_EQ(s.cache.retunes, 0u);
}

TEST(SolveServiceGofmm, LambdaSweepRetunesTheCachedFactorization) {
#ifdef GOFMM_TSAN
  GTEST_SKIP() << "zoo matrices are too slow under TSan";
#endif
  typename SolveService<double>::Options opts;
  opts.batch_window = microseconds(200);
  SolveService<double> svc(zoo_builder(512), opts);
  OperatorSpec spec = diag_spec("K07", 1e-3);
  spec.config = service_config();

  const la::Matrix<double> b = la::Matrix<double>::random_normal(512, 2, 11);
  for (double lambda : {1e-3, 1e-2, 1e-1, 1e-2}) {
    spec.lambda = lambda;
    const ServiceResult<double> res = svc.solve(spec, b);
    ASSERT_EQ(res.residuals.size(), 2u);
    // The factorization really is tuned to THIS λ: the solve inverts
    // (K̃+λI) to near round-off, which a stale λ would not.
    EXPECT_LT(res.residuals[0], 1e-10);
    EXPECT_LT(res.residuals[1], 1e-10);
  }

  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.cache.builds, 1u);   // λ-sweep never re-compressed
  EXPECT_EQ(s.cache.retunes, 3u);  // every λ change took the fast path
  EXPECT_EQ(s.cache.misses, 1u);   // one cold key; the rest were hits
}

TEST(SolveServiceGofmm, FailedRetuneFailsOnlyItsOwnRequest) {
#ifdef GOFMM_TSAN
  GTEST_SKIP() << "zoo matrices are too slow under TSan";
#endif
  // A NaN λ makes the retune throw, which drops the cached operator's
  // factors. That request fails alone; the next request at the λ the entry
  // still records must re-factorize rather than read the dropped factors.
  typename SolveService<double>::Options opts;
  opts.batch_window = microseconds(200);
  SolveService<double> svc(zoo_builder(512), opts);
  OperatorSpec spec = diag_spec("K04", 1e-2);
  spec.config = service_config();
  const la::Matrix<double> b = la::Matrix<double>::random_normal(512, 1, 23);
  const ServiceResult<double> first = svc.solve(spec, b);

  OperatorSpec bad = spec;
  bad.lambda = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)svc.submit_solve(bad, b).get(), Error);

  const ServiceResult<double> again = svc.solve(spec, b);
  ASSERT_EQ(again.values.rows(), first.values.rows());
  // The rebuild is a fresh factorize() at the same λ and options, so it
  // reproduces the original factors bit for bit.
  for (index_t i = 0; i < b.rows(); ++i)
    ASSERT_EQ(again.values(i, 0), first.values(i, 0)) << "row " << i;

  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.cache.builds, 1u);  // the failure never re-compressed
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.failed, 1u);
}

TEST(SolveServiceGofmm, MixedPrecisionSolveRefinesToDoubleAccuracy) {
#ifdef GOFMM_TSAN
  GTEST_SKIP() << "zoo matrices are too slow under TSan";
#endif
  typename SolveService<double>::Options opts;
  opts.batch_window = microseconds(200);
  SolveService<double> svc(zoo_builder(512), opts);
  OperatorSpec spec = diag_spec("K04", 1e-2);
  spec.config = service_config();
  spec.factorize = FactorizeOptions::defaults().with_precision(
      Precision::MixedF32);

  const la::Matrix<double> b = la::Matrix<double>::random_normal(512, 2, 13);
  const ServiceResult<double> res = svc.solve(spec, b);

  // Float factors alone stop near 1e-6; refinement must close the gap to
  // the double target, and the service must surface the extra sweeps.
  ASSERT_EQ(res.residuals.size(), 2u);
  EXPECT_LE(res.residuals[0], 1e-8);
  EXPECT_LE(res.residuals[1], 1e-8);
  EXPECT_GE(res.refine_iterations, 1);

  const ServiceStats s = svc.stats();
  EXPECT_GE(s.refine_iterations, std::uint64_t(res.refine_iterations));

  // Same dataset at Double is a different structure key: a second build,
  // not a cache hit against the float-stored entry.
  OperatorSpec plain = spec;
  plain.factorize = FactorizeOptions::defaults();
  (void)svc.solve(plain, b);
  EXPECT_EQ(svc.stats().cache.builds, 2u);
}

}  // namespace
}  // namespace gofmm::service
