// Operator/factorization cache of the solve service.
//
// A long-lived service answers many solves against few operators: the same
// kernel matrix is compressed once and then queried under a stream of
// right-hand sides and regularizations. This cache keys built operators by
// their STRUCTURE — (dataset id, config fingerprint, elimination mode,
// storage precision) — and lets λ float per entry, because the ULV engine
// retunes λ through refactorize() at a fraction of a rebuild (orthogonal
// elimination: rotations, bases, and couplings are all λ-independent). A
// request for a cached structure at a new λ therefore never re-compresses
// and never re-runs the full factorization; it takes the refactorize fast
// path under the entry's writer lock.
//
// Concurrency contract:
//  * acquire() is single-flight: any number of threads missing the same
//    cold key block on ONE build; the rest never invoke the builder.
//  * with_operator() runs the caller's function under the entry's shared
//    lock with the factorization pinned at the requested λ, so concurrent
//    solves at one λ proceed in parallel while a retune to another λ
//    waits for exclusivity (and vice versa).
//  * A retune that throws (a non-finite λ, or a Cholesky entry shifted
//    indefinite) fails only the batch that asked for it. The operator
//    drops its factors, so the next request at ANY λ — the resident one
//    included — re-factorizes under the exclusive lock with the entry's
//    factorize options instead of reading dropped factors.
//  * Eviction is LRU over a byte budget counting compression + factor
//    bytes. In-flight users hold shared_ptr references, so an evicted
//    entry's memory is released when the last solve against it finishes.
#pragma once

#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/config.hpp"
#include "core/error.hpp"
#include "core/operator.hpp"
#include "service/service_stats.hpp"

namespace gofmm::service {

/// Stable textual fingerprint of every Config field that shapes the
/// compressed operator (leaf size, ranks, tolerance, sampling, seed, ...).
/// Two configs with equal fingerprints build bit-identical compressions;
/// execution-only knobs (engine, num_workers) are deliberately EXCLUDED —
/// the phase builders order reductions deterministically, so the engine
/// changes wall-clock, not bits, and folding it in would duplicate entries.
std::string config_fingerprint(const Config& config);

/// What a service request asks an operator to be: which matrix (by dataset
/// id — the cache never sees the data, only the builder does), compressed
/// how, factorized with which elimination, regularized by which λ.
struct OperatorSpec {
  /// Dataset identifier the builder resolves (e.g. a zoo name "kernel-2k";
  /// the cache treats it as an opaque id).
  std::string dataset;
  /// Compression tunables; fingerprinted into the structure key.
  Config config = Config::defaults();
  /// Regularization λ. NOT part of the structure key: entries retune to a
  /// requested λ via refactorize() instead of rebuilding.
  double lambda = 0.0;
  /// Factorization policy: elimination strategy and storage precision.
  /// Both part of the structure key — Cholesky and pivoted-LDLᵀ factors
  /// differ structurally, and a MixedF32 factorization stores different
  /// (float) bytes than a Double one, so the two must never alias one
  /// cache entry. (The elimination structure is fixed by the operator's
  /// bases, so it needs no key component.)
  FactorizeOptions factorize = FactorizeOptions::defaults();

  /// The physical cache key:
  /// dataset | config fingerprint | elimination | precision.
  /// Everything except λ.
  [[nodiscard]] std::string structure_key() const;
};

/// Keyed, single-flight, byte-budgeted LRU cache of built-and-factorized
/// compressed operators. `T` is the scalar type (float/double).
template <typename T>
class OperatorCache {
 public:
  /// Builds (compresses) the operator for a spec. Invoked outside all cache
  /// locks, at most once per cold structure key (single-flight); exceptions
  /// propagate to every waiter of that build. The cache factorizes the
  /// returned operator itself when it supports it — builders only compress.
  using Builder =
      std::function<std::shared_ptr<CompressedOperator<T>>(const OperatorSpec&)>;

  /// One resident operator. Readers (solve/apply/logdet — const,
  /// thread-safe) hold `mu` shared; λ-retunes (refactorize mutates) hold it
  /// exclusively. `lambda` is the λ the factorization is currently tuned
  /// to, guarded by `mu`.
  struct Entry {
    std::shared_ptr<CompressedOperator<T>> op;  ///< the built operator
    std::shared_mutex mu;      ///< shared = use, exclusive = retune
    double lambda = 0.0;       ///< current factorization λ (guarded by mu)
    std::uint64_t bytes = 0;   ///< compression + factor bytes charged
    std::string skey;          ///< owning structure key (for diagnostics)
  };

  /// A cache with a builder and a resident-byte budget. The budget is a
  /// soft target: the most recently used entry always stays, so a single
  /// operator larger than the budget still caches (and evicts the rest).
  OperatorCache(Builder builder, std::uint64_t byte_budget)
      : builder_(std::move(builder)), budget_(byte_budget) {
    check<ConfigError>(bool(builder_), "OperatorCache: builder is empty");
  }

  /// Returns the entry for the spec's STRUCTURE, building it on a cold key
  /// (single-flight: concurrent misses wait for one build). Does not touch
  /// λ — pair with with_operator() to use the factorization at spec.lambda.
  std::shared_ptr<Entry> acquire(const OperatorSpec& spec) {
    const std::string key = spec.structure_key();
    std::shared_future<std::shared_ptr<Entry>> flight;
    std::shared_ptr<std::promise<std::shared_ptr<Entry>>> mine;
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (auto it = map_.find(key); it != map_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);  // most recently used
        counters_.hits += 1;
        return *it->second;
      }
      if (auto bit = building_.find(key); bit != building_.end()) {
        counters_.single_flight_waits += 1;
        flight = bit->second;
      } else {
        counters_.misses += 1;
        mine = std::make_shared<std::promise<std::shared_ptr<Entry>>>();
        building_.emplace(key, mine->get_future().share());
      }
    }
    if (!mine) return flight.get();  // rethrows the winner's build error

    // We won the build race: compress + factorize outside every lock.
    std::shared_ptr<Entry> entry;
    try {
      entry = build(spec, key);
    } catch (...) {
      {
        std::unique_lock<std::mutex> lk(mu_);
        building_.erase(key);
      }
      mine->set_exception(std::current_exception());
      throw;
    }
    {
      std::unique_lock<std::mutex> lk(mu_);
      lru_.push_front(entry);
      map_.emplace(key, lru_.begin());
      counters_.builds += 1;
      counters_.resident_bytes += entry->bytes;
      evict_over_budget();
      building_.erase(key);
    }
    mine->set_value(entry);
    return entry;
  }

  /// Runs `fn(entry)` with the factorization tuned to spec.lambda: under
  /// the entry's SHARED lock when factors at that λ are resident
  /// (concurrent solves at one λ proceed in parallel), or — when another λ
  /// is resident, or a failed retune dropped the factors — under the
  /// EXCLUSIVE lock immediately after the refactorize() retune (which
  /// rebuilds dropped factors with the entry's factorize options). The
  /// retuned call keeps the write lock through `fn` on purpose: releasing
  /// it to downgrade would let an interleaved batch at the other λ retune
  /// back before we re-enter, and two alternating λs then livelock in a
  /// retune ping-pong without ever running their sweeps. Operators without
  /// a factorization capability (e.g. ACA) skip the λ protocol — `fn`
  /// runs immediately under the shared lock.
  template <typename F>
  auto with_operator(const OperatorSpec& spec, F&& fn) {
    std::shared_ptr<Entry> entry = acquire(spec);
    Factorizable<T>* fact = entry->op->factorizable();
    const auto tuned = [&] {
      return fact->factorized() && entry->lambda == spec.lambda;
    };
    {
      std::shared_lock<std::shared_mutex> read(entry->mu);
      if (fact == nullptr || tuned()) return fn(*entry);
    }
    std::unique_lock<std::shared_mutex> write(entry->mu);
    if (!tuned()) {
      fact->refactorize(T(spec.lambda));
      entry->lambda = spec.lambda;
      std::unique_lock<std::mutex> lk(mu_);
      counters_.retunes += 1;
    }
    return fn(*entry);
  }

  /// True when the structure key is resident (no LRU touch, no build).
  [[nodiscard]] bool contains(const std::string& structure_key) const {
    std::unique_lock<std::mutex> lk(mu_);
    return map_.find(structure_key) != map_.end();
  }

  /// Snapshot of the hit/miss/retune/evict counters.
  [[nodiscard]] CacheCounters counters() const {
    std::unique_lock<std::mutex> lk(mu_);
    CacheCounters c = counters_;
    c.entries = map_.size();
    return c;
  }

  /// The configured resident-byte budget.
  [[nodiscard]] std::uint64_t byte_budget() const { return budget_; }

 private:
  std::shared_ptr<Entry> build(const OperatorSpec& spec,
                               const std::string& key) {
    auto entry = std::make_shared<Entry>();
    entry->skey = key;
    entry->op = builder_(spec);
    check<StateError>(entry->op != nullptr,
                      "OperatorCache: builder returned no operator for '" +
                          key + "'");
    entry->bytes = entry->op->memory_bytes();
    if (auto* fact = entry->op->factorizable(); fact != nullptr) {
      fact->factorize(T(spec.lambda), spec.factorize);
      entry->lambda = spec.lambda;
      entry->bytes += fact->factorization_stats().memory_bytes;
    }
    return entry;
  }

  // Drops least-recently-used entries until the budget holds, always
  // keeping the MRU entry. Caller holds mu_.
  void evict_over_budget() {
    while (counters_.resident_bytes > budget_ && lru_.size() > 1) {
      const std::shared_ptr<Entry>& victim = lru_.back();
      counters_.resident_bytes -= victim->bytes;
      counters_.evictions += 1;
      map_.erase(victim->skey);
      lru_.pop_back();  // in-flight users keep their shared_ptr alive
    }
  }

  using LruList = std::list<std::shared_ptr<Entry>>;

  Builder builder_;
  const std::uint64_t budget_;
  mutable std::mutex mu_;  // guards map_/lru_/building_/counters_
  LruList lru_;            // front = most recently used
  std::unordered_map<std::string, typename LruList::iterator> map_;
  std::unordered_map<std::string,
                     std::shared_future<std::shared_ptr<Entry>>>
      building_;
  CacheCounters counters_;
};

}  // namespace gofmm::service
