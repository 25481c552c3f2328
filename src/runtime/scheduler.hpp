// Work-stealing HEFT scheduler (paper §2.3 "Runtime").
//
// Ready tasks are dispatched to the worker whose queue has the minimum
// estimated finish time (sum of estimated costs of already-queued work);
// idle workers steal from the most-loaded peer. This reproduces the paper's
// light-weight dynamic Heterogeneous-Earliest-Finish-Time runtime with a
// job-stealing fallback for when the cost model misestimates.
//
// The scheduler owns a PERSISTENT worker pool: threads start at
// construction and live until destruction, so a long-lived owner (the
// solve service of src/service/) pays thread startup once, not per graph.
// Graphs are executed either synchronously (run()) or asynchronously
// (submit(), returning a future) — concurrent submits from different
// threads interleave on the one pool, which is how the service overlaps
// operator builds with solve sweeps.
//
// Tasks see one OpenMP thread: each worker sets its own OpenMP thread
// count to 1 at start, so a kernel's `omp parallel` region entered from a
// task (gemm_panel, trsm, ...) runs serially on that worker and the pool,
// not nested OpenMP teams, owns the cores. Threads that call run() or
// submit() keep their own OpenMP thread count.
#pragma once

#include <future>
#include <memory>

#include "runtime/task.hpp"

namespace gofmm::rt {

/// The submitted graph has a dependency cycle: some tasks can never become
/// ready. Detected by a Kahn topological pass BEFORE any task executes, so
/// a cyclic graph fails fast instead of stalling the pool (the seed
/// scheduler detected this as a multi-second idle-spin stall; the check is
/// now O(tasks + edges) and deterministic).
class CycleError : public std::runtime_error {
 public:
  /// `msg` names one task on the cycle for diagnosis.
  explicit CycleError(const std::string& msg);
};

/// Executes TaskGraphs on a fixed persistent pool of worker threads.
class Scheduler {
 public:
  /// `num_workers` <= 0 selects the hardware concurrency. Workers start
  /// immediately and idle on a condition variable until work arrives.
  explicit Scheduler(int num_workers = 0);

  /// Drains every submitted graph, then stops and joins the workers.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;             ///< owns threads
  Scheduler& operator=(const Scheduler&) = delete;  ///< owns threads

  /// Runs every task in the graph respecting dependencies; blocks until all
  /// tasks completed. The graph can be re-run (dependency counters are
  /// reinitialised on entry). Throws CycleError if the graph has a
  /// dependency cycle (no task executes then); rethrows the first task
  /// exception after the graph drains. Must not be called from inside a
  /// task on this scheduler (the worker would wait on itself).
  void run(TaskGraph& graph);

  /// Asynchronous variant of run(): enqueues the graph's sources and
  /// returns a future that becomes ready when every task completed (or
  /// carries the first task exception). The caller must keep `graph` alive
  /// and unmodified until the future is ready. Throws CycleError before
  /// enqueuing anything if the graph is cyclic. A graph may only be
  /// re-submitted after its previous future completed.
  [[nodiscard]] std::shared_future<void> submit(TaskGraph& graph);

  [[nodiscard]] int num_workers() const { return num_workers_; }

  /// Total tasks executed by steals since construction; exposed so tests
  /// and the scheduler bench can observe load-balancing behaviour.
  [[nodiscard]] std::uint64_t steal_count() const;

 private:
  struct Impl;  // worker pool, queues, wake plumbing (scheduler.cpp)
  int num_workers_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gofmm::rt
