// The four benchmark workloads and the helpers they share. See
// perfbench/README.md for why each workload exists and which layers it
// stresses.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/gofmm.hpp"
#include "harness.hpp"
#include "util/prng.hpp"

namespace perfbench {

void run_fmm_matvec(const Args& args, Report& report);
void run_ulv_solve(const Args& args, Report& report);
void run_hodlr_solve(const Args& args, Report& report);
void run_service_mix(const Args& args, Report& report);

/// Set-ups per run: setup_s is the median of this many from-scratch builds.
inline constexpr int kSetupReps = 3;

/// Correctness bound on the sampled ε₂ (matvec_rel_err) of the workloads
/// at accuracy-seeking configurations (fmm_matvec, hodlr_solve).
inline constexpr double kMaxRelErr = 5e-3;
/// The bound for the budget-0 operators (ulv_solve, service_mix): without
/// near-field blocks their ε₂ is large (COVTYPE about 0.06 at N = 1024 and
/// 0.5 at N = 16384), so only an operator no closer to K than the zero
/// operator (ε₂ = 1) is plainly wrong.
inline constexpr double kMaxRelErrBudget0 = 1;

/// An independent 64-bit stream of the run seed (stream ids are fixed per
/// use, so one input never shifts when another input changes).
[[nodiscard]] inline std::uint64_t derive(std::uint64_t seed,
                                          std::uint64_t stream) {
  return gofmm::Prng(seed * 0x9E3779B97F4A7C15ull + stream)();
}

/// Per-call wall-clock seconds of `op`, repeated until `seconds` have
/// elapsed and at least `min_reps` calls ran.
inline std::vector<double> time_repeated(double seconds, int min_reps,
                                         const std::function<void(int)>& op) {
  std::vector<double> out;
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    if (i >= min_reps && seconds_between(start, Clock::now()) >= seconds)
      break;
    const auto t0 = Clock::now();
    op(i);
    out.push_back(seconds_between(t0, Clock::now()));
  }
  return out;
}

/// Medians over kSetupReps from-scratch runs of a set-up that returns the
/// seconds of its two phases (build, then factorize; a one-phase set-up
/// returns 0 for the second): {total, phase 1, phase 2}. Each run replaces
/// the previous product, which `setup` must release first.
std::array<double, 3> median_two_phase_setup(
    const std::function<std::pair<double, double>()>& setup);

/// The λ ladder of ulv_solve and hodlr_solve: log-uniform over
/// [1e-3, 1e-1], in seed order.
std::vector<double> lambda_ladder(std::uint64_t seed);

/// Sampled ε₂ = ‖K̃w − Kw‖_F / ‖Kw‖_F of `op` on a fixed 32-column probe
/// block w, over `rows` rows (drawn from `seed`) of the exact oracle `k`
/// (paper Eq. 11). The probe does not follow the run seed: K04's spectrum
/// has a few dominant eigenvalues, so ‖Kw‖ of a seed-drawn block moves ε₂
/// by ±10% with no change to the operator.
double probe_error(const gofmm::CompressedOperator<double>& op,
                   const gofmm::SPDMatrix<double>& k, index_t rows,
                   std::uint64_t seed);

/// Sets the OpenMP team size for its lifetime (the 1-thread column of the
/// scaling metrics), restoring the previous size afterwards.
class ThreadBudget {
 public:
  explicit ThreadBudget(int threads);
  ~ThreadBudget();
  ThreadBudget(const ThreadBudget&) = delete;
  ThreadBudget& operator=(const ThreadBudget&) = delete;

 private:
  int saved_;
};

/// The end-to-end metrics of an untraced run, the same five on every
/// workload: set-up median, `rss_mb` (peak RSS, taken before the ε₂ probe,
/// whose dense block of exact rows is the benchmark's own), p50 of `op_s`
/// (per-call seconds of the workload's most frequent timed call),
/// `ops_per_s` (timed calls per second of the timed phase) and the sampled
/// ε₂ `rel_err`.
void report_end_to_end(Report& report, double setup_s, double rss_mb,
                       const std::vector<double>& op_s, double ops_per_s,
                       double rel_err);

/// Per-layer figures of a compression as the program reports them
/// (CompressionStats), as tree.* and core.* details.
void report_compression(Report& report, const gofmm::CompressionStats& s);

/// Oracle counters of a traced run under the matrices.* names.
void report_oracle(Report& report, const CountingOracle<double>& oracle);

/// la.gemm_peak_gflops, and the scaling thread counts.
void report_machine(Report& report, double gemm_peak);

/// The evaluator metrics of `flops` per call at `seconds` per call.
void report_evaluator(Report& report, double flops, double seconds,
                      double gemm_peak);

/// The repeated-apply determinism check on one product `u` of an rhs
/// block: the block's first product is kept in `first`, and every later
/// one must equal it bit for bit. Counts one attempted operation; a
/// mismatch also fails the run.
void check_repeat_apply(Report& report, const char* workload,
                        gofmm::la::Matrix<double>& first,
                        gofmm::la::Matrix<double> u);

/// Column residuals ‖(A+λI)x_j − b_j‖/‖b_j‖ through the operator's
/// own apply() (one blocked matvec for all columns).
[[nodiscard]] std::vector<double> column_residuals(
    const gofmm::CompressedOperator<double>& op, double lambda,
    const gofmm::la::Matrix<double>& b, const gofmm::la::Matrix<double>& x,
    gofmm::EvalWorkspace<double>& ws);

/// Timings of a λ ladder: the kernel-regression / GP λ-tuning shape.
struct LadderResult {
  std::vector<double> retune_s;      ///< one refactorize(λ) per step
  std::vector<double> solve_s;       ///< single-column solves
  std::uint64_t residual_flops = 0;  ///< flops of the last residual apply
  double max_residual = 0;
  std::uint64_t larft_calls = 0;     ///< larft calls made inside solves
  std::uint64_t retune_flops = 0;    ///< flops of the last refactorize
};

/// Steps through `lambdas` (cyclically) until `seconds` have elapsed and
/// at least `min_steps` steps ran. A step is refactorize(λ), then
/// `solves_per_step` single-column solves of columns of `rhs`, then one
/// blocked apply() of the solutions that checks every residual against
/// `max_residual`. Each solve counts as one attempted operation. With an
/// enabled tracer every call is a span. `before_step`, if given, runs
/// before every step, outside the step's span and timings.
LadderResult run_ladder(gofmm::CompressedOperator<double>& op,
                        const std::vector<double>& lambdas,
                        const gofmm::la::Matrix<double>& rhs,
                        int solves_per_step, double seconds, int min_steps,
                        double max_residual, Report& report, Tracer& tracer,
                        const std::function<void()>& before_step = {});

}  // namespace perfbench
