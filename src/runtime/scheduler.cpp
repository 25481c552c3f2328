#include "runtime/scheduler.hpp"

#include <omp.h>

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

namespace gofmm::rt {

namespace detail {

// One submitted graph execution. Tasks point back at their run so workers
// from interleaved submits can credit completions to the right future.
struct GraphRun {
  std::atomic<index_t> remaining{0};
  std::atomic<bool> failed{false};
  std::mutex err_mu;
  std::exception_ptr first_error;  // guarded by err_mu
  std::promise<void> promise;
  // Set (as the worker's final touch) after the promise fired; the
  // scheduler frees the run only once this is observed, so no worker can
  // be inside promise.set_value when the GraphRun is destroyed.
  std::atomic<bool> retired{false};
};

// The scheduler's window into Task/TaskGraph private wiring.
struct TaskAccess {
  static std::vector<Task*>& successors(Task* t) { return t->successors_; }
  static std::atomic<index_t>& unmet(Task* t) { return t->unmet_; }
  static index_t num_preds(const Task* t) { return t->num_preds_; }
  static GraphRun*& run(Task* t) { return t->run_; }
  static const std::vector<std::unique_ptr<Task>>& tasks(TaskGraph& g) {
    return g.tasks_;
  }
};

}  // namespace detail

using detail::GraphRun;
using detail::TaskAccess;

CycleError::CycleError(const std::string& msg) : std::runtime_error(msg) {}

namespace {

// Per-worker ready queue with an estimated-finish-time accumulator.
struct WorkerQueue {
  std::mutex mu;
  std::deque<Task*> ready;
  double pending_cost = 0.0;  // guarded by mu

  void push(Task* t) {
    std::lock_guard<std::mutex> lk(mu);
    ready.push_back(t);
    pending_cost += t->cost();
  }

  Task* pop_front() {
    std::lock_guard<std::mutex> lk(mu);
    if (ready.empty()) return nullptr;
    Task* t = ready.front();
    ready.pop_front();
    pending_cost -= t->cost();
    return t;
  }

  // Steal from the back (cold end) of a victim's queue.
  Task* pop_back() {
    std::lock_guard<std::mutex> lk(mu);
    if (ready.empty()) return nullptr;
    Task* t = ready.back();
    ready.pop_back();
    pending_cost -= t->cost();
    return t;
  }

  double load() {
    std::lock_guard<std::mutex> lk(mu);
    return pending_cost;
  }
};

// Kahn topological pass: returns false when some tasks are unreachable
// from the sources, i.e. the graph has a dependency cycle. Runs before any
// task is enqueued, so a cyclic submit executes nothing.
bool acyclic(const std::vector<std::unique_ptr<Task>>& tasks,
             std::string* cycle_member) {
  std::vector<index_t> degree(tasks.size());
  std::vector<Task*> order;
  order.reserve(tasks.size());
  std::vector<index_t> id_of(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    degree[i] = TaskAccess::num_preds(tasks[i].get());
    if (degree[i] == 0) order.push_back(tasks[i].get());
  }
  // Map Task* -> index for degree updates without a hash map: tasks are
  // graph-owned, so a linear id can ride in unmet_ (it is reset at submit).
  for (std::size_t i = 0; i < tasks.size(); ++i)
    TaskAccess::unmet(tasks[i].get())
        .store(index_t(i), std::memory_order_relaxed);
  std::size_t visited = 0;
  while (visited < order.size()) {
    Task* t = order[visited++];
    for (Task* s : TaskAccess::successors(t)) {
      const auto si =
          std::size_t(TaskAccess::unmet(s).load(std::memory_order_relaxed));
      if (--degree[si] == 0) order.push_back(s);
    }
  }
  if (visited == tasks.size()) return true;
  if (cycle_member != nullptr) {
    for (std::size_t i = 0; i < tasks.size(); ++i)
      if (degree[i] > 0) {
        *cycle_member = tasks[i]->name();
        break;
      }
  }
  return false;
}

}  // namespace

// Persistent worker pool. Lifecycle: threads start in the constructor and
// idle on wake_cv until queued > 0; dispatches from any thread (submit or
// a worker releasing successors) enqueue HEFT-style and notify. stop_
// makes idle workers exit once the queues drain.
struct Scheduler::Impl {
  explicit Impl(int num_workers) : W(num_workers) {
    queues.reserve(std::size_t(W));
    for (int w = 0; w < W; ++w) queues.push_back(std::make_unique<WorkerQueue>());
    threads.reserve(std::size_t(W));
    for (int w = 0; w < W; ++w)
      threads.emplace_back([this, w] { worker(w); });
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lk(wake_mu);
      stop = true;
    }
    wake_cv.notify_all();
    for (auto& th : threads) th.join();
    // All workers joined: every run is retired and safe to free.
    runs.clear();
  }

  // HEFT dispatch: enqueue on the worker with minimum estimated finish
  // time. Thread-safe; called from submit() and from workers releasing
  // successors.
  void dispatch(Task* t) {
    int best = 0;
    double best_load = queues[0]->load();
    for (int w = 1; w < W; ++w) {
      const double l = queues[std::size_t(w)]->load();
      if (l < best_load) {
        best_load = l;
        best = w;
      }
    }
    queues[std::size_t(best)]->push(t);
    // Count under wake_mu: a worker between its (false) wait predicate and
    // blocking would otherwise miss this notify — a lost wake-up that hangs
    // run() when this was the graph's last dispatch.
    {
      std::lock_guard<std::mutex> lk(wake_mu);
      queued.fetch_add(1, std::memory_order_release);
    }
    wake_cv.notify_all();
  }

  Task* try_steal(int wid) {
    // Work stealing: raid the most-loaded peer queue.
    int victim = -1;
    double vload = 0.0;
    for (int w = 0; w < W; ++w) {
      if (w == wid) continue;
      const double l = queues[std::size_t(w)]->load();
      if (l > vload) {
        vload = l;
        victim = w;
      }
    }
    Task* t = victim >= 0 ? queues[std::size_t(victim)]->pop_back() : nullptr;
    if (t != nullptr) steals.fetch_add(1, std::memory_order_relaxed);
    return t;
  }

  void worker(int wid) {
    // One runtime owns the cores: an OpenMP region entered from a task
    // runs on a one-thread team instead of forking beside its peers. The
    // setting is this thread's own; the submitting thread keeps its count.
    omp_set_num_threads(1);
    WorkerQueue& mine = *queues[std::size_t(wid)];
    for (;;) {
      Task* t = mine.pop_front();
      if (t == nullptr) t = try_steal(wid);
      if (t == nullptr) {
        std::unique_lock<std::mutex> lk(wake_mu);
        wake_cv.wait(lk, [this] {
          return stop || queued.load(std::memory_order_acquire) > 0;
        });
        if (stop && queued.load(std::memory_order_acquire) == 0) return;
        continue;
      }
      queued.fetch_sub(1, std::memory_order_release);
      GraphRun* run = TaskAccess::run(t);
      try {
        t->execute(wid);
      } catch (...) {
        std::lock_guard<std::mutex> lk(run->err_mu);
        if (!run->failed.exchange(true, std::memory_order_acq_rel))
          run->first_error = std::current_exception();
      }
      // Release successors (they may belong only to this run: edges never
      // cross graphs). Failed runs still release, so the graph drains and
      // the future completes instead of leaking pending tasks.
      for (Task* s : TaskAccess::successors(t)) {
        if (TaskAccess::unmet(s).fetch_sub(1, std::memory_order_acq_rel) == 1)
          dispatch(s);
      }
      if (run->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        if (run->failed.load(std::memory_order_acquire)) {
          std::exception_ptr err;
          {
            std::lock_guard<std::mutex> lk(run->err_mu);
            err = run->first_error;
          }
          run->promise.set_exception(err);
        } else {
          run->promise.set_value();
        }
        run->retired.store(true, std::memory_order_release);
      }
    }
  }

  // Frees completed GraphRuns. Called under submits (keeping the list
  // bounded on a long-lived scheduler) and at destruction.
  void prune_runs() {
    std::lock_guard<std::mutex> lk(runs_mu);
    std::erase_if(runs, [](const std::unique_ptr<GraphRun>& r) {
      return r->retired.load(std::memory_order_acquire);
    });
  }

  const int W;
  std::vector<std::unique_ptr<WorkerQueue>> queues;
  std::vector<std::thread> threads;
  std::atomic<index_t> queued{0};
  std::atomic<std::uint64_t> steals{0};
  std::mutex wake_mu;
  std::condition_variable wake_cv;
  bool stop = false;  // guarded by wake_mu
  std::mutex runs_mu;
  std::vector<std::unique_ptr<GraphRun>> runs;  // guarded by runs_mu
};

Scheduler::Scheduler(int num_workers)
    : num_workers_(num_workers > 0
                       ? num_workers
                       : int(std::max(1u, std::thread::hardware_concurrency()))),
      impl_(std::make_unique<Impl>(num_workers_)) {}

Scheduler::~Scheduler() = default;

std::uint64_t Scheduler::steal_count() const {
  return impl_->steals.load(std::memory_order_relaxed);
}

std::shared_future<void> Scheduler::submit(TaskGraph& graph) {
  const auto& tasks = TaskAccess::tasks(graph);
  std::string member;
  if (!acyclic(tasks, &member))
    throw CycleError("Scheduler: dependency cycle through task '" + member +
                     "' — no task was executed");

  // The run owns the graph's completion state; tasks borrow a raw
  // pointer. The scheduler itself keeps the run alive (impl_->runs) until
  // the finishing worker retires it, so the caller may drop the future —
  // or destroy the graph the moment the future is ready — without racing
  // the worker's promise.set_value.
  auto owned = std::make_unique<GraphRun>();
  GraphRun* run = owned.get();
  run->remaining.store(index_t(tasks.size()), std::memory_order_relaxed);
  std::shared_future<void> fut = run->promise.get_future().share();
  impl_->prune_runs();
  {
    std::lock_guard<std::mutex> lk(impl_->runs_mu);
    impl_->runs.push_back(std::move(owned));
  }
  if (tasks.empty()) {
    run->promise.set_value();
    run->retired.store(true, std::memory_order_release);
    return fut;
  }

  // Reset dependency counters and wire the run before the first dispatch:
  // a seeded source may finish (and touch successors) while later sources
  // are still being seeded.
  for (const auto& t : tasks) {
    TaskAccess::unmet(t.get())
        .store(TaskAccess::num_preds(t.get()), std::memory_order_relaxed);
    TaskAccess::run(t.get()) = run;
  }
  for (const auto& t : tasks)
    if (TaskAccess::num_preds(t.get()) == 0) impl_->dispatch(t.get());
  return fut;
}

void Scheduler::run(TaskGraph& graph) { submit(graph).get(); }

}  // namespace gofmm::rt
