// Unit tests for the task runtime (DAG scheduler + traversal engines).
#include <gtest/gtest.h>
#include <omp.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "runtime/engines.hpp"
#include "runtime/scheduler.hpp"
#include "util/prng.hpp"

namespace gofmm::rt {
namespace {

/// Records completion order with thread safety.
struct Recorder {
  std::mutex mu;
  std::vector<int> order;
  void record(int id) {
    std::lock_guard<std::mutex> lk(mu);
    order.push_back(id);
  }
  [[nodiscard]] index_t position(int id) const {
    for (std::size_t i = 0; i < order.size(); ++i)
      if (order[i] == id) return index_t(i);
    return -1;
  }
};

class SchedulerWorkers : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerWorkers, ChainExecutesInOrder) {
  Recorder rec;
  TaskGraph g;
  Task* prev = nullptr;
  for (int i = 0; i < 32; ++i) {
    Task* t = g.emplace([&rec, i](int) { rec.record(i); });
    if (prev != nullptr) g.add_edge(prev, t);
    prev = t;
  }
  Scheduler s(GetParam());
  s.run(g);
  ASSERT_EQ(rec.order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(rec.order[std::size_t(i)], i);
}

TEST_P(SchedulerWorkers, DiamondDependency) {
  Recorder rec;
  TaskGraph g;
  Task* a = g.emplace([&](int) { rec.record(0); });
  Task* b = g.emplace([&](int) { rec.record(1); });
  Task* c = g.emplace([&](int) { rec.record(2); });
  Task* d = g.emplace([&](int) { rec.record(3); });
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, d);
  g.add_edge(c, d);
  Scheduler s(GetParam());
  s.run(g);
  EXPECT_EQ(rec.position(0), 0);
  EXPECT_EQ(rec.position(3), 3);
}

TEST_P(SchedulerWorkers, WideFanCompletes) {
  std::atomic<int> count{0};
  TaskGraph g;
  Task* src = g.emplace([&](int) { count++; });
  Task* sink = g.emplace([&](int) { count++; });
  for (int i = 0; i < 200; ++i) {
    Task* t = g.emplace([&](int) { count++; });
    g.add_edge(src, t);
    g.add_edge(t, sink);
  }
  Scheduler s(GetParam());
  s.run(g);
  EXPECT_EQ(count.load(), 202);
}

TEST_P(SchedulerWorkers, RandomDagRespectsAllEdges) {
  // Layered random DAG; after execution, verify every edge ordering.
  Prng rng(2024);
  Recorder rec;
  TaskGraph g;
  std::vector<Task*> tasks;
  std::vector<std::pair<int, int>> edges;
  const int layers = 8;
  const int width = 12;
  for (int l = 0; l < layers; ++l)
    for (int w = 0; w < width; ++w) {
      const int id = l * width + w;
      tasks.push_back(
          g.emplace([&rec, id](int) { rec.record(id); }, 1.0 + double(id % 7)));
      if (l > 0) {
        const int npar = 1 + int(rng.below(3));
        for (int p = 0; p < npar; ++p) {
          const int parent = (l - 1) * width + int(rng.below(width));
          g.add_edge(tasks[std::size_t(parent)], tasks.back());
          edges.emplace_back(parent, id);
        }
      }
    }
  Scheduler s(GetParam());
  s.run(g);
  ASSERT_EQ(rec.order.size(), std::size_t(layers * width));
  for (const auto& [from, to] : edges)
    EXPECT_LT(rec.position(from), rec.position(to)) << from << " -> " << to;
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, SchedulerWorkers,
                         ::testing::Values(1, 2, 4, 8));

TEST(Scheduler, EmptyGraph) {
  TaskGraph g;
  Scheduler s(2);
  EXPECT_NO_THROW(s.run(g));
}

TEST(Scheduler, TaskExceptionPropagates) {
  TaskGraph g;
  g.emplace([](int) { throw std::runtime_error("boom"); });
  Scheduler s(2);
  EXPECT_THROW(s.run(g), std::runtime_error);
}

TEST(Scheduler, TaskExceptionKeepsOriginalMessage) {
  // The ORIGINAL exception crosses the pool (exception_ptr), not a
  // generic "a task threw" wrapper; downstream tasks still drain.
  std::atomic<int> after{0};
  TaskGraph g;
  Task* a = g.emplace([](int) { throw std::invalid_argument("original"); });
  Task* b = g.emplace([&](int) { after++; });
  g.add_edge(a, b);
  Scheduler s(2);
  try {
    s.run(g);
    FAIL() << "expected the task exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "original");
  }
  EXPECT_EQ(after.load(), 1);
}

TEST(Scheduler, GraphCanBeRerun) {
  std::atomic<int> count{0};
  TaskGraph g;
  Task* a = g.emplace([&](int) { count++; });
  Task* b = g.emplace([&](int) { count++; });
  g.add_edge(a, b);
  Scheduler s(2);
  s.run(g);
  s.run(g);
  EXPECT_EQ(count.load(), 4);
}

// ------------------------------------------------- cycle detection ----
// The seed scheduler "detected" a dependency cycle as a multi-second
// idle-spin stall; these tests pin the contract the service executor
// relies on: a cyclic graph throws CycleError BEFORE any task executes.

TEST(Scheduler, TwoTaskCycleThrowsWithoutExecuting) {
  std::atomic<int> ran{0};
  TaskGraph g;
  Task* a = g.emplace([&](int) { ran++; }, 1.0, "a");
  Task* b = g.emplace([&](int) { ran++; }, 1.0, "b");
  g.add_edge(a, b);
  g.add_edge(b, a);
  Scheduler s(2);
  EXPECT_THROW(s.run(g), CycleError);
  EXPECT_EQ(ran.load(), 0);
}

TEST(Scheduler, SelfCycleThrows) {
  TaskGraph g;
  Task* a = g.emplace([](int) {}, 1.0, "self");
  g.add_edge(a, a);
  Scheduler s(1);
  EXPECT_THROW(s.run(g), CycleError);
}

TEST(Scheduler, CycleNamesAMemberTaskAndSparesIndependentWork) {
  // A cycle plus independent source tasks: still rejected atomically
  // (nothing ran, not even the acyclic part), and the error names a task
  // on the cycle for diagnosis.
  std::atomic<int> ran{0};
  TaskGraph g;
  g.emplace([&](int) { ran++; }, 1.0, "independent");
  Task* a = g.emplace([&](int) { ran++; }, 1.0, "cyclic_a");
  Task* b = g.emplace([&](int) { ran++; }, 1.0, "cyclic_b");
  g.add_edge(a, b);
  g.add_edge(b, a);
  Scheduler s(2);
  try {
    s.run(g);
    FAIL() << "expected CycleError";
  } catch (const CycleError& e) {
    EXPECT_NE(std::string(e.what()).find("cyclic_"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(ran.load(), 0);
}

TEST(Scheduler, CycleErrorIsARuntimeError) {
  // The seed code threw std::runtime_error from the stall path; callers
  // catching the standard type keep working.
  TaskGraph g;
  Task* a = g.emplace([](int) {});
  Task* b = g.emplace([](int) {});
  g.add_edge(a, b);
  g.add_edge(b, a);
  Scheduler s(1);
  EXPECT_THROW(s.run(g), std::runtime_error);
}

// --------------------------------------------------- work stealing ----

TEST(Scheduler, StealCounterObservesRebalancing) {
  // Force the HEFT cost model to misestimate: a sleeper task with a tiny
  // estimated cost pins one worker, and the instant tasks queued behind
  // it can only complete via steals by the other worker. The counter is
  // cumulative per scheduler, so a second run can only grow it.
  Scheduler s(2);
  const std::uint64_t before = s.steal_count();
  for (int round = 0; round < 2; ++round) {
    std::atomic<int> done{0};
    TaskGraph g;
    Task* src = g.emplace([](int) {});
    // All equal costs: HEFT round-robins them across both queues, so
    // ~half sit behind the sleeper once it starts.
    Task* sleeper = g.emplace(
        [](int) { std::this_thread::sleep_for(std::chrono::milliseconds(100)); },
        1.0, "sleeper");
    g.add_edge(src, sleeper);
    for (int i = 0; i < 64; ++i) {
      Task* t = g.emplace([&](int) { done++; }, 1.0);
      g.add_edge(src, t);
    }
    s.run(g);
    EXPECT_EQ(done.load(), 64);
  }
  EXPECT_GT(s.steal_count(), before);
}

// ------------------------------------------------- async submission ----

TEST(Scheduler, SubmitOverlapsIndependentGraphs) {
  // Two graphs in flight on one pool; each future completes with its own
  // graph's work, and a sleeper in the first does not block the second.
  Scheduler s(4);
  std::atomic<int> a{0}, b{0};
  TaskGraph g1, g2;
  Task* slow = g1.emplace([&](int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    a++;
  });
  Task* after = g1.emplace([&](int) { a++; });
  g1.add_edge(slow, after);
  for (int i = 0; i < 8; ++i) g2.emplace([&](int) { b++; });
  auto f1 = s.submit(g1);
  auto f2 = s.submit(g2);
  f2.get();
  EXPECT_EQ(b.load(), 8);
  f1.get();
  EXPECT_EQ(a.load(), 2);
}

TEST(Scheduler, SubmitPropagatesExceptionThroughFuture) {
  Scheduler s(2);
  TaskGraph g;
  g.emplace([](int) { throw std::runtime_error("async boom"); });
  auto f = s.submit(g);
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(Scheduler, ConcurrentSubmittersShareThePool) {
  Scheduler s(4);
  std::atomic<int> total{0};
  constexpr int kThreads = 8;
  std::vector<TaskGraph> graphs(kThreads);
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < 32; ++i) graphs[std::size_t(t)].emplace([&](int) { total++; });
    submitters.emplace_back(
        [&s, &graphs, t] { s.submit(graphs[std::size_t(t)]).get(); });
  }
  for (auto& th : submitters) th.join();
  EXPECT_EQ(total.load(), kThreads * 32);
}

TEST(Scheduler, DroppedFutureStillCompletes) {
  // A caller may fire-and-forget; destruction of the scheduler drains the
  // graph before the worker threads join.
  std::atomic<int> count{0};
  TaskGraph g;
  for (int i = 0; i < 16; ++i) g.emplace([&](int) { count++; });
  {
    Scheduler s(2);
    (void)s.submit(g);
  }  // ~Scheduler drains
  EXPECT_EQ(count.load(), 16);
}

// ---------------------------------------------------- wake-up / OpenMP ----

TEST(Scheduler, ThousandsOfTinyGraphsNeverLoseAWakeUp) {
  // A dispatch counted outside the wake mutex could land between an idle
  // worker's (false) wait predicate and its blocking, losing the notify
  // and leaving run() waiting forever, most often with one worker. Fresh
  // pools, whose workers are just reaching their first wait, and reused
  // ones both race that window here. A bounded wait turns a lost wake-up
  // into a failure, not a hang; ~Scheduler's stop notify then drains the
  // stuck graph, which `stuck` keeps alive until every pool is gone.
  std::vector<std::unique_ptr<TaskGraph>> stuck;
  auto run_bounded = [&stuck](Scheduler& s, std::atomic<int>& done) {
    auto g = std::make_unique<TaskGraph>();
    Task* a = g->emplace([&](int) { done++; });
    Task* b = g->emplace([&](int) { done++; });
    Task* c = g->emplace([&](int) { done++; });
    g->add_edge(a, b);
    g->add_edge(a, c);
    auto f = s.submit(*g);
    if (f.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
      stuck.push_back(std::move(g));
      return false;
    }
    f.get();
    return true;
  };
  constexpr int kGraphs = 2000;
  for (const int workers : {1, 2}) {
    std::atomic<int> done{0};
    int completed = 0;
    for (int i = 0; i < kGraphs; ++i) {
      Scheduler fresh(workers);
      if (!run_bounded(fresh, done)) break;
      ++completed;
    }
    Scheduler reused(workers);
    for (int i = 0; i < kGraphs; ++i) {
      if (!run_bounded(reused, done)) break;
      ++completed;
    }
    EXPECT_EQ(completed, 2 * kGraphs) << workers << " worker(s)";
  }
}

TEST(Scheduler, TasksSeeOneOpenMpThread) {
  // A kernel's omp parallel region inside a task runs on a one-thread
  // team; the pool, not nested OpenMP teams, owns the cores.
  Scheduler s(3);
  std::atomic<int> ran{0}, wider{0};
  TaskGraph g;
  for (int i = 0; i < 12; ++i)
    g.emplace([&](int) {
      int team = 0;
#pragma omp parallel
      {
#pragma omp single
        team = omp_get_num_threads();
      }
      if (omp_get_max_threads() != 1 || team != 1) wider++;
      ran++;
    });
  s.run(g);
  EXPECT_EQ(ran.load(), 12);
  EXPECT_EQ(wider.load(), 0);
}

TEST(Scheduler, CallerKeepsItsOpenMpThreadCount) {
  const int saved = omp_get_max_threads();
  omp_set_num_threads(3);
  {
    Scheduler s(2);
    TaskGraph g;
    for (int i = 0; i < 8; ++i) g.emplace([](int) {});
    s.run(g);
    EXPECT_EQ(omp_get_max_threads(), 3);
    (void)s.submit(g).get();
    EXPECT_EQ(omp_get_max_threads(), 3);
  }
  EXPECT_EQ(omp_get_max_threads(), 3);
  omp_set_num_threads(saved);
}

// -------------------------------------------------- traversal engines ----

/// Minimal binary tree for traversal tests.
struct TNode {
  int id = 0;
  TNode* l = nullptr;
  TNode* r = nullptr;
  [[nodiscard]] TNode* left() const { return l; }
  [[nodiscard]] TNode* right() const { return r; }
};

struct TestTree {
  std::vector<std::unique_ptr<TNode>> pool;
  TNode* root = nullptr;
  std::vector<std::vector<TNode*>> levels;

  explicit TestTree(int depth) { root = make(depth, 0); }
  TNode* make(int depth, int level) {
    pool.push_back(std::make_unique<TNode>());
    TNode* n = pool.back().get();
    n->id = int(pool.size()) - 1;
    if (index_t(levels.size()) <= level)
      levels.resize(std::size_t(level) + 1);
    levels[std::size_t(level)].push_back(n);
    if (depth > 0) {
      n->l = make(depth - 1, level + 1);
      n->r = make(depth - 1, level + 1);
    }
    return n;
  }
};

TEST(Engines, OmpPostorderRespectsDependencies) {
  TestTree t(5);
  Recorder rec;
  auto f = [&](TNode* n) { rec.record(n->id); };
  omp_postorder(t.root, f);
  ASSERT_EQ(rec.order.size(), t.pool.size());
  for (const auto& up : t.pool) {
    if (up->l == nullptr) continue;
    EXPECT_GT(rec.position(up->id), rec.position(up->l->id));
    EXPECT_GT(rec.position(up->id), rec.position(up->r->id));
  }
}

TEST(Engines, OmpPreorderRespectsDependencies) {
  TestTree t(5);
  Recorder rec;
  auto f = [&](TNode* n) { rec.record(n->id); };
  omp_preorder(t.root, f);
  ASSERT_EQ(rec.order.size(), t.pool.size());
  for (const auto& up : t.pool) {
    if (up->l == nullptr) continue;
    EXPECT_LT(rec.position(up->id), rec.position(up->l->id));
    EXPECT_LT(rec.position(up->id), rec.position(up->r->id));
  }
}

TEST(Engines, LevelTraversalsCoverAllNodes) {
  TestTree t(4);
  std::atomic<int> count{0};
  level_bottom_up(t.levels, [&](TNode*) { count++; });
  EXPECT_EQ(count.load(), int(t.pool.size()));
  count = 0;
  level_top_down(t.levels, [&](TNode*) { count++; });
  EXPECT_EQ(count.load(), int(t.pool.size()));
}

TEST(Engines, StringRoundTrip) {
  for (Engine e : {Engine::LevelByLevel, Engine::OmpTask, Engine::Heft})
    EXPECT_EQ(engine_from_string(to_string(e)), e);
  EXPECT_THROW(engine_from_string("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace gofmm::rt
