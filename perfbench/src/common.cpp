#include <cmath>
#include <cstring>

#include "la/blas.hpp"
#include "la/qr.hpp"
#include "workloads.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {

ThreadBudget::ThreadBudget(int threads) : saved_(default_threads()) {
#ifdef _OPENMP
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
}

ThreadBudget::~ThreadBudget() {
#ifdef _OPENMP
  omp_set_num_threads(saved_);
#endif
}

void report_end_to_end(Report& report, double setup_s, double rss_mb,
                       const std::vector<double>& op_s, double ops_per_s,
                       double rel_err) {
  report.metric("setup_s", setup_s, "s");
  report.metric("peak_rss_mb", rss_mb, "MB");
  report.metric("op_p50_ms", 1e3 * percentile(op_s, 50), "ms");
  // The tail is a traced-run metric (op_p90_ms): on the shared 4-core
  // development host the p90 of hodlr_solve's and service_mix's calls moved
  // by IQR/median 0.29-0.34 over ten seeds, past the largest bound.
  report.metric("ops_per_s", ops_per_s, "1/s");
  report.metric("matvec_rel_err", rel_err, "ratio");
}

void report_compression(Report& report, const gofmm::CompressionStats& s) {
  // Program-reported: compress() runs ANN, tree, lists, skeletonization and
  // caching internally, with no public entry point per phase.
  report.detail("tree.ann_s", s.ann_seconds, "s");
  report.detail("tree.build_s", s.tree_seconds, "s");
  report.detail("tree.ann_recall", s.ann_recall, "ratio");
  report.detail("core.lists_s", s.lists_seconds, "s");
  report.detail("core.skel_s", s.skel_seconds, "s");
  report.detail("core.skel_gflops",
                double(s.skel_flops) * 1e-9 / std::max(s.skel_seconds, 1e-12),
                "GF/s");
  report.detail("core.cache_s", s.cache_seconds, "s");
  report.detail("core.cache_mb", double(s.cached_bytes) / 1e6, "MB");
  report.detail("core.avg_rank", s.avg_rank, "rank");
  report.detail("core.near_fraction", s.near_fraction, "ratio");
}

void report_oracle(Report& report, const CountingOracle<double>& oracle) {
  report.metric("matrices.entries", double(oracle.entries()), "count");
  report.metric("matrices.busy_s", oracle.busy_seconds(), "s");
}

void report_machine(Report& report, double gemm_peak) {
  report.metric("la.gemm_peak_gflops", gemm_peak, "GF/s");
  report.metric("scaling.threads_p", default_threads(), "threads");
  report.metric("scaling.threads_1", 1, "threads");
}

void report_evaluator(Report& report, double flops, double seconds,
                      double gemm_peak) {
  const double gflops = flops * 1e-9 / seconds;
  report.metric("evaluator.flops", flops, "flop");
  report.metric("evaluator.gflops", gflops, "GF/s");
  report.metric("evaluator.peak_frac", gflops / gemm_peak, "ratio");
}

void check_repeat_apply(Report& report, const char* workload,
                        gofmm::la::Matrix<double>& first,
                        gofmm::la::Matrix<double> u) {
  if (first.empty()) {
    first = std::move(u);
    report.attempt(true);
    return;
  }
  const bool same = u.rows() == first.rows() && u.cols() == first.cols() &&
                    std::memcmp(u.data(), first.data(),
                                sizeof(double) * std::size_t(u.rows()) *
                                    std::size_t(u.cols())) == 0;
  report.attempt(same);
  report.check(same, std::string(workload) +
                         ": repeated apply() is not bitwise identical");
}

std::vector<double> column_residuals(
    const gofmm::CompressedOperator<double>& op, double lambda,
    const gofmm::la::Matrix<double>& b, const gofmm::la::Matrix<double>& x,
    gofmm::EvalWorkspace<double>& ws) {
  gofmm::la::Matrix<double> ax = op.apply(x, ws);
  const index_t n = x.rows();
  std::vector<double> out(std::size_t(x.cols()));
  for (index_t j = 0; j < x.cols(); ++j) {
    gofmm::la::axpy(n, lambda, x.col(j), ax.col(j));
    double num = 0;
    for (index_t i = 0; i < n; ++i) {
      const double d = ax(i, j) - b(i, j);
      num += d * d;
    }
    const double res =
        std::sqrt(num) / std::max(gofmm::la::nrm2(n, b.col(j)), 1e-300);
    out[std::size_t(j)] = std::isfinite(res) ? res : HUGE_VAL;
  }
  return out;
}

std::array<double, 3> median_two_phase_setup(
    const std::function<std::pair<double, double>()>& setup) {
  std::vector<double> total, first, second;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto [a, b] = setup();
    total.push_back(a + b);
    first.push_back(a);
    second.push_back(b);
  }
  return {percentile(total, 50), percentile(first, 50),
          percentile(second, 50)};
}

std::vector<double> lambda_ladder(std::uint64_t seed) {
  constexpr int kLadder = 8;  // distinct λ values, cycled
  gofmm::Prng rng(derive(seed, 3));
  std::vector<double> out;
  for (int i = 0; i < kLadder; ++i)
    out.push_back(std::pow(10.0, rng.uniform(-3.0, -1.0)));
  return out;
}

double probe_error(const gofmm::CompressedOperator<double>& op,
                   const gofmm::SPDMatrix<double>& k, index_t rows,
                   std::uint64_t seed) {
  const auto w = gofmm::la::Matrix<double>::random_normal(op.size(), 32, 5);
  gofmm::EvalWorkspace<double> ws;
  const gofmm::la::Matrix<double> u = op.apply(w, ws);
  return gofmm::sampled_relative_error(k, w, u, rows, seed);
}

LadderResult run_ladder(gofmm::CompressedOperator<double>& op,
                        const std::vector<double>& lambdas,
                        const gofmm::la::Matrix<double>& rhs,
                        int solves_per_step, double seconds, int min_steps,
                        double max_residual, Report& report, Tracer& tracer,
                        const std::function<void()>& before_step) {
  using Matrix = gofmm::la::Matrix<double>;
  gofmm::Factorizable<double>& fact = *op.factorizable();
  const index_t n = op.size();
  LadderResult out;
  gofmm::EvalWorkspace<double> ws;
  const auto start = Clock::now();
  index_t next_col = 0;
  for (int step = 0;
       step < min_steps || seconds_between(start, Clock::now()) < seconds;
       ++step) {
    if (before_step) before_step();
    const double lambda = lambdas[std::size_t(step) % lambdas.size()];
    Tracer::Scope step_span(tracer, "ladder_step", std::uint64_t(step) + 1);
    auto t0 = Clock::now();
    {
      Tracer::Scope span(tracer, "refactorize", std::uint64_t(step) + 1);
      fact.refactorize(lambda);
    }
    out.retune_s.push_back(seconds_between(t0, Clock::now()));
    out.retune_flops = fact.factorization_stats().flops;

    Matrix b(n, solves_per_step), x(n, solves_per_step);
    for (int j = 0; j < solves_per_step; ++j) {
      const Matrix bj = rhs.block(0, next_col, n, 1);
      next_col = (next_col + 1) % rhs.cols();
      const std::uint64_t larft0 = gofmm::la::larft_calls();
      t0 = Clock::now();
      Matrix xj;
      {
        Tracer::Scope span(tracer, "solve", std::uint64_t(step) + 1);
        xj = fact.solve(bj);
      }
      out.solve_s.push_back(seconds_between(t0, Clock::now()));
      out.larft_calls += gofmm::la::larft_calls() - larft0;
      std::copy_n(bj.col(0), n, b.col(j));
      std::copy_n(xj.col(0), n, x.col(j));
    }
    std::vector<double> res;
    {
      Tracer::Scope span(tracer, "residual_apply", std::uint64_t(step) + 1);
      res = column_residuals(op, lambda, b, x, ws);
    }
    out.residual_flops = ws.last.flops;
    for (double r : res) {
      report.attempt(r <= max_residual);
      out.max_residual = std::max(out.max_residual, r);
    }
  }
  report.check(out.max_residual <= max_residual,
               "solve residual " + sci(out.max_residual) +
                   " above " + sci(max_residual));
  return out;
}

}  // namespace perfbench
