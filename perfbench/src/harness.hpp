// Measurement plumbing shared by the benchmark workloads: sample
// statistics, the result record printed as the run's last line, the span
// tracer of traced runs, the counting oracle decorator, and the in-process
// GEMM peak.
//
// Everything here measures the library from outside: spans wrap calls into
// its public functions, and the oracle decorator is an ordinary SPDMatrix
// handed to compress() in place of the zoo matrix.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/spd_matrix.hpp"
#include "la/matrix.hpp"
#include "util/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using gofmm::index_t;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;  ///< measured (timed) phase length
  bool trace = false;
  std::string trace_file;   ///< where a traced run writes its spans
  std::string layers_file;  ///< where a traced run writes every layer metric
};

using gofmm::percentile;

/// `v` in scientific notation with four significant digits (messages).
std::string sci(double v);

/// Highest resident set size of this process so far, in MB.
double peak_rss_mb();

/// Thread budget of the default runs (OpenMP's default team size).
int default_threads();

/// The result record: correctness, operation counts and named metrics,
/// printed as one JSON object on the last line of standard output.
///
/// Every workload prints the same metric names (the ones BENCHMARK.json
/// lists), so a traced run splits its layer figures in two: `metric()` for
/// the layers every workload runs, `detail()` for the layers only some
/// workloads run (factorization, solve, hodlr, service, ...). Details go to
/// the table and the layers file, not to the last line.
class Report {
 public:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  /// Records a metric; the value is printed with all its digits.
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a layer figure of this workload only.
  void detail(const std::string& name, double value, const std::string& unit);
  /// Records a correctness check; a failing check is logged to stderr and
  /// makes the run incorrect.
  void check(bool ok, const std::string& what);
  /// Counts one attempted operation, failed or not.
  void attempt(bool ok) {
    attempted_ += 1;
    if (!ok) failed_ += 1;
  }
  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] std::string json() const;
  /// Writes metrics and details as one JSON object; false on I/O failure.
  bool write_layers(const std::string& path, const std::string& workload) const;
  /// Human-readable metric table (stderr).
  void print_table() const;

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<Metric> details_;
};

/// In-memory span recorder of traced runs. A span is one call into a
/// public library function: name, start, end, parent span and request id.
/// When disabled, Scope costs one branch and records nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    double t0 = 0, t1 = 0;      ///< seconds since the tracer's epoch
    std::int64_t parent = -1;   ///< index of the enclosing span, -1 = root
    std::uint64_t request = 0;  ///< shared by the spans of one request
    std::uint32_t thread = 0;   ///< recording thread (small ordinal)
  };

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Pauses or resumes recording between phases (never while spans of
  /// another thread are open).
  void set_enabled(bool on) { enabled_ = on; }

  /// RAII span on the calling thread, nested under the thread's open span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int64_t id_ = -1;
    std::int64_t saved_parent_ = -1;
  };

  /// Records a finished span measured elsewhere (e.g. a service request
  /// from its due time to its future becoming ready).
  void record(const char* name, Clock::time_point t0, Clock::time_point t1,
              std::uint64_t request);

  /// Summed duration / self time (duration minus the union of its direct
  /// children's intervals) of every span called `name`.
  [[nodiscard]] double total_seconds(const std::string& name) const;
  [[nodiscard]] double self_seconds(const std::string& name) const;
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  /// Writes every span as Chrome trace-event JSON (any trace viewer opens
  /// it offline). Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::int64_t open(const char* name, std::uint64_t request,
                    std::int64_t parent);
  void close(std::int64_t id);
  /// Self time of every span, by index. Caller holds mu_.
  [[nodiscard]] std::vector<double> self_times() const;
  [[nodiscard]] double now() const {
    return seconds_between(epoch_, Clock::now());
  }

  bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

/// SPDMatrix decorator that counts the entries handed out and the time
/// spent producing them (summed over calling threads). Used in traced runs
/// only; untraced runs hand the zoo matrix over unwrapped.
template <typename T>
class CountingOracle final : public gofmm::SPDMatrix<T> {
 public:
  explicit CountingOracle(std::shared_ptr<const gofmm::SPDMatrix<T>> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] index_t size() const override { return inner_->size(); }
  [[nodiscard]] T entry(index_t i, index_t j) const override {
    const auto t0 = Clock::now();
    const T v = inner_->entry(i, j);
    tally(1, Clock::now() - t0);
    return v;
  }
  [[nodiscard]] gofmm::la::Matrix<T> submatrix(
      std::span<const index_t> I, std::span<const index_t> J) const override {
    const auto t0 = Clock::now();
    gofmm::la::Matrix<T> m = inner_->submatrix(I, J);
    tally(std::uint64_t(I.size()) * std::uint64_t(J.size()),
          Clock::now() - t0);
    return m;
  }
  [[nodiscard]] const gofmm::la::Matrix<T>* points() const override {
    return inner_->points();
  }

  [[nodiscard]] std::uint64_t entries() const;
  [[nodiscard]] double busy_seconds() const;

 private:
  // Per-thread padded slots: compression calls the oracle from every
  // worker, and one shared counter would bounce its cache line on each
  // entry() call.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> entries{0};
    std::atomic<std::int64_t> nanos{0};
  };
  static constexpr std::size_t kSlots = 64;
  void tally(std::uint64_t n, Clock::duration d) const;

  std::shared_ptr<const gofmm::SPDMatrix<T>> inner_;
  mutable Slot slots_[kSlots];
};

/// Best-of-several GFLOP/s of a 512³ la::gemm in this process, at the
/// current OpenMP thread count: the peak that evaluator and factorization
/// rates are compared with.
double gemm_peak_gflops();

}  // namespace perfbench
