// Wall-clock timing helpers used by benches and the HEFT cost model.
#pragma once

#include <chrono>

namespace gofmm {

/// Monotonic wall-clock timer with seconds granularity suitable for
/// phase timing ("Comp"/"Eval" columns of the paper's tables).
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  /// Restarts the timer.
  void reset() { start_ = clock::now(); }

  /// Elapsed seconds since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace gofmm
