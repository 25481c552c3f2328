// service_mix — single-column traffic against a warm SolveService.
//
// Four warm budget-0 operators at N = 1024: K04, K07, G02 (a graph, no
// coordinates) and COVTYPE. Every request is one column — about 7/8
// solves, 1/8 matvecs, uniform over the operators. K04 alternates between
// two λ values on a fixed schedule, so its retunes take the cache's
// exclusive write path while other requests read under the shared lock.
//
// The untraced run is a closed loop of kWindow caller threads: its latency
// and throughput are the end-to-end metrics. The traced run adds an open
// loop, one generator thread sending on a seeded Poisson schedule at a
// fixed ladder of offered rates and one collector thread noting when each
// future becomes ready, for the latency at each rate and the highest rate
// that meets the latency limit. Open-loop latencies on the 4-core
// development host moved 15-37% (IQR over median) between identical runs,
// too much for a bounded metric.
//
// Latency is measured from outside: in the open loop from when a request
// was due (not when it was sent, so a stalled generator shows), in the
// closed loop from when it was sent, to when its future became ready. The
// service's own histogram is coarser (1.3x buckets) than the steadiness
// this benchmark needs.
//
// Why: batching, the cache locks, rt::Scheduler and small sweeps under
// contention do all of the timed work; compression does none of it. This
// small, contended regime is where extra threads have been seen to hurt.
#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "core/gofmm.hpp"
#include "la/qr.hpp"
#include "matrices/zoo.hpp"
#include "service/solve_service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using gofmm::CompressedMatrix;
using Matrix = gofmm::la::Matrix<double>;
using Service = gofmm::service::SolveService<double>;
using gofmm::service::OperatorSpec;
using gofmm::service::RequestKind;

constexpr index_t kN = 1024;
constexpr index_t kRhsPool = 64;
const std::vector<std::string> kDatasets = {"K04", "K07", "G02", "COVTYPE"};
constexpr std::size_t kSwitching = 0;  // K04 alternates its λ
constexpr int kMatvecEvery = 8;  // about 1 request in 8 is a matvec

// Offered rates (req/s). The first is the reference rate of svc_p50_ms /
// svc_p99_ms; the others, each √2 above the last, bracket svc_max_rate.
// The timed phase is kCycles cycles; each cycle offers every rate in turn
// for a segment (the reference rate kReferenceShare of the cycle, the
// others equal shares), so every rate samples more than one stretch of the
// run, and the service drains between segments.
//
// At the reference rate K04's λ flips every kFlipPeriod seconds of
// schedule: each flip is a retune through the cache's exclusive write path
// while the other requests read on, and its stall is what p99 measures
// there; service.retunes_per_switch counts the retunes each flip costs.
// The ladder rates keep λ fixed: under load a flip is often answered by a
// storm of back-and-forth retunes whose size decides the tail, and
// svc_max_rate then varied 20-40% between identical runs.
const std::vector<double> kRates = {400, 1600, 2263, 3200, 4525};
constexpr double kReferenceShare = 0.4;
// The closed loop keeps kWindow requests outstanding: kWindow callers that
// each wait for their reply. Its stream is drawn at kClosedRate req/s of
// schedule time, more than the service completes, so it never runs dry,
// and K04's λ flips every kFlipPeriod of that schedule (every 3000
// requests).
constexpr std::size_t kWindow = 16;
constexpr double kClosedRate = 12000;
constexpr int kCycles = 2;
constexpr double kFlipPeriod = 0.25;
// The rate at which the traced run measures batch width.
constexpr std::size_t kHighRate = 2;
// Latency limit on p99 for svc_max_rate.
constexpr double kLimitMs = 50;
// A segment has a growing backlog when, as its schedule ends, more requests
// are outstanding than this share of its requests plus those a service
// meeting the latency limit would still hold (rate × limit).
constexpr double kBacklogShare = 0.05;
constexpr double kMaxResidual = 1e-8;
constexpr double kMaxMatvecDiff = 1e-12;
constexpr index_t kErrRows = 400;  // sampled rows of each ε₂ estimate

struct Request {
  double due = 0;         // seconds after the segment starts
  std::uint64_t id = 0;   // unique in the run (trace request id)
  std::size_t dataset = 0;
  RequestKind kind = RequestKind::Solve;
  double lambda = 0;
  index_t col = 0;
};

struct Segment {
  std::size_t rate = 0;  // index into kRates
  int cycle = 0;
  double seconds = 0;
  int switches = 0;      // λ switches the schedule asks for
  std::vector<Request> reqs;
};

struct Outcome {
  double latency = 0;  // due → ready, seconds; +inf when rejected
  double late = 0;     // due → submitted, seconds
  bool ok = false;
  bool rejected = false;
  double queue_s = 0, sweep_s = 0;
};

// What one segment, or all segments at one rate, measured.
struct RateResult {
  std::vector<Outcome> outcomes;
  double seconds = 0;  // wall time, first send to last reply
  bool backlog = false;
  std::uint64_t retunes = 0, batches = 0, columns = 0;
  int switches = 0;  // λ switches the schedule asked for

  void add(const RateResult& s) {
    outcomes.insert(outcomes.end(), s.outcomes.begin(), s.outcomes.end());
    seconds += s.seconds;
    backlog = backlog || s.backlog;
    retunes += s.retunes;
    batches += s.batches;
    columns += s.columns;
    switches += s.switches;
  }
  // Latencies; a failed request counts as an infinite latency.
  [[nodiscard]] std::vector<double> latencies() const {
    std::vector<double> lat;
    for (const Outcome& o : outcomes)
      lat.push_back(o.ok ? o.latency : HUGE_VAL);
    return lat;
  }
  [[nodiscard]] double latency(double p) const {
    return percentile(latencies(), p);
  }
  // Requests served correctly per second.
  [[nodiscard]] double throughput() const {
    double ok = 0;
    for (const Outcome& o : outcomes) ok += o.ok ? 1 : 0;
    return ok / seconds;
  }
};

// Config::seed stays at the library default, as in fmm_matvec and
// ulv_solve: with it following the run seed, K04's ε₂ moved by IQR/median
// 0.05 over ten seeds and G02's by 15x over three.
gofmm::Config service_config() {
  return gofmm::Config::defaults()
      .with_leaf_size(128)
      .with_max_rank(128)
      .with_tolerance(1e-5)
      .with_budget(0.0);
}

// The seeded request stream of one segment: Poisson arrivals at `rate`,
// uniform over datasets. K04 asks for `k04_lambda(t)` at schedule time t.
template <typename LambdaOf>
std::vector<Request> schedule(std::uint64_t seed, double rate,
                              const Segment& seg, std::uint64_t& next_id,
                              const std::vector<double>& lambdas,
                              LambdaOf&& k04_lambda) {
  gofmm::Prng rng(seed);
  std::vector<Request> out;
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seg.seconds) break;
    Request r;
    r.due = t;
    r.id = ++next_id;
    r.dataset = std::size_t(rng.below(index_t(kDatasets.size())));
    r.kind = rng.below(kMatvecEvery) == 0 ? RequestKind::Matvec
                                          : RequestKind::Solve;
    r.lambda = r.dataset == kSwitching ? k04_lambda(t) : lambdas[r.dataset];
    r.col = rng.below(kRhsPool);
    out.push_back(r);
  }
  return out;
}

// Highest offered rate whose p99 meets the limit with no growing backlog,
// interpolated (log-log) between the last rate that meets it and the first
// that misses.
double max_rate(const std::vector<RateResult>& rs) {
  const double limit = kLimitMs * 1e-3;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const double p99 = rs[i].latency(99);
    if (!rs[i].backlog && p99 <= limit) continue;
    if (i == 0) return kRates[0] * limit / p99;  // below the whole ladder
    const double pa = rs[i - 1].latency(99);
    const double pb = std::isfinite(p99) && p99 > pa ? p99 : 4 * limit;
    const double f = std::clamp(std::log(limit / pa) / std::log(pb / pa), 0.0,
                                1.0);
    return kRates[i - 1] * std::pow(kRates[i] / kRates[i - 1], f);
  }
  return kRates.back();
}

}  // namespace

void run_service_mix(const Args& args, Report& report) {
  std::map<std::string, std::shared_ptr<const gofmm::SPDMatrix<double>>> mats;
  std::vector<Matrix> pools;
  for (std::size_t d = 0; d < kDatasets.size(); ++d) {
    mats[kDatasets[d]].reset(
        gofmm::zoo::make_matrix<double>(kDatasets[d], kN).release());
    pools.push_back(
        Matrix::random_normal(kN, kRhsPool, derive(args.seed, 20 + d)));
  }
  gofmm::Prng lam_rng(derive(args.seed, 3));
  std::vector<double> lambdas;
  for (std::size_t d = 0; d < kDatasets.size(); ++d)
    lambdas.push_back(std::pow(10.0, lam_rng.uniform(-2.0, -1.0)));
  const std::array<double, 2> switching = {lambdas[kSwitching],
                                           lambdas[kSwitching] * 4};
  const gofmm::Config cfg = service_config();
  auto spec_of = [&](std::size_t d, double lambda) {
    OperatorSpec s;
    s.dataset = kDatasets[d];
    s.config = cfg;
    s.lambda = lambda;
    return s;
  };

  // Every request stream is generated before any timing.
  std::uint64_t next_id = 0;
  auto closed_loop = [&](double seconds, std::uint64_t stream) {
    Segment seg;
    seg.seconds = seconds;
    seg.reqs = schedule(derive(args.seed, stream), kClosedRate, seg, next_id,
                        lambdas, [&switching](double t) {
                          return switching[std::size_t(t / kFlipPeriod) % 2];
                        });
    return seg;
  };
  // The open loop of the traced run: kCycles cycles over half its timed
  // phase.
  auto open_loop = [&] {
    std::vector<Segment> segments;
    double ref_clock = 0;  // schedule time spent at the reference rate
    const double cycle = args.seconds / 2 / kCycles;
    for (int c = 0; c < kCycles; ++c)
      for (std::size_t i = 0; i < kRates.size(); ++i) {
        Segment seg;
        seg.rate = i;
        seg.cycle = c;
        seg.seconds = cycle * (i == 0 ? kReferenceShare
                                      : (1 - kReferenceShare) /
                                            double(kRates.size() - 1));
        // The operators warm up at switching[0].
        std::function<double(double)> k04;
        if (i == 0) {
          const double t0 = ref_clock;
          k04 = [&switching, t0](double t) {
            return switching[std::size_t((t0 + t) / kFlipPeriod) % 2];
          };
          seg.switches = int((t0 + seg.seconds) / kFlipPeriod) -
                         int(t0 / kFlipPeriod);
          ref_clock += seg.seconds;
        } else {
          const double lam =
              switching[std::size_t(ref_clock / kFlipPeriod) % 2];
          k04 = [lam](double) { return lam; };
        }
        seg.reqs = schedule(derive(args.seed, 100 + 16 * c + i), kRates[i],
                            seg, next_id, lambdas, k04);
        segments.push_back(std::move(seg));
      }
    return segments;
  };

  Tracer tracer(args.trace);
  std::unique_ptr<Service> svc;
  // Matvec products kept for the accuracy check (per dataset, first few).
  std::mutex keep_mu;
  std::vector<std::vector<std::pair<index_t, Matrix>>> kept(kDatasets.size());
  // Starts the service and warms the four operators, with `workers`
  // executor and compression workers (0 = the default).
  auto setup = [&](bool counted, int workers) {
    svc.reset();
    for (auto& k : kept) k.clear();
    auto src = mats;
    std::vector<std::shared_ptr<CountingOracle<double>>> oracles;
    if (counted)
      for (auto& [name, m] : src) {
        oracles.push_back(std::make_shared<CountingOracle<double>>(m));
        m = oracles.back();
      }
    Service::Options opts;
    opts.num_workers = workers;
    const auto t0 = Clock::now();
    svc = std::make_unique<Service>(
        [src, workers](const OperatorSpec& spec)
            -> std::shared_ptr<gofmm::CompressedOperator<double>> {
          return CompressedMatrix<double>::compress_unique(
              src.at(spec.dataset),
              gofmm::Config(spec.config).with_num_workers(workers));
        },
        opts);
    for (std::size_t d = 0; d < kDatasets.size(); ++d)
      (void)svc->cache().acquire(
          spec_of(d, d == kSwitching ? switching[0] : lambdas[d]));
    const double t = seconds_between(t0, Clock::now());
    if (counted) {
      std::uint64_t entries = 0;
      double busy = 0;
      for (const auto& o : oracles) {
        entries += o->entries();
        busy += o->busy_seconds();
      }
      report.metric("matrices.entries", double(entries), "count");
      report.metric("matrices.busy_s", busy, "s");
    }
    return t;
  };
  auto plain_setups = [&] {
    return median_two_phase_setup(
        [&] { return std::pair{setup(false, 0), 0.0}; })[0];
  };

  using Future = std::future<gofmm::service::ServiceResult<double>>;
  // Records the outcome of a request whose future is ready.
  auto settle = [&](const Request& rq, Outcome& o, Clock::time_point due,
                    Future& fut) {
    const auto ready = Clock::now();
    o.latency = seconds_between(due, ready);
    tracer.record("request", due, ready, rq.id);
    try {
      gofmm::service::ServiceResult<double> res = fut.get();
      o.queue_s = res.queue_seconds;
      o.sweep_s = res.sweep_seconds;
      if (rq.kind == RequestKind::Solve) {
        o.ok = res.residuals.size() == 1 && res.residuals[0] <= kMaxResidual;
      } else {
        o.ok = res.values.cols() == 1;
        std::lock_guard<std::mutex> lk(keep_mu);
        if (kept[rq.dataset].size() < 4)
          kept[rq.dataset].push_back({rq.col, std::move(res.values)});
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "service_mix: request failed: %s\n", e.what());
    }
  };
  // Submits one request; false (with the outcome recorded) when the
  // service refuses it.
  auto send = [&](const Request& r, Outcome& o, Future& fut) {
    Matrix b = pools[r.dataset].block(0, r.col, kN, 1);
    try {
      Tracer::Scope span(tracer, "submit", r.id);
      fut = svc->submit(r.kind, spec_of(r.dataset, r.lambda), std::move(b));
      return true;
    } catch (const gofmm::service::OverloadedError&) {
      o.rejected = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "service_mix: submit failed: %s\n", e.what());
    }
    o.latency = HUGE_VAL;
    return false;
  };
  // After a segment: drain the service, take its counters and count every
  // request as an attempted operation.
  auto finish = [&](const Segment& seg, RateResult& rr,
                    const gofmm::service::ServiceStats& s0) {
    svc->drain();
    const gofmm::service::ServiceStats s1 = svc->stats();
    rr.retunes = s1.cache.retunes - s0.cache.retunes;
    rr.batches = s1.batches - s0.batches;
    rr.columns = s1.batched_columns - s0.batched_columns;
    rr.switches = seg.switches;
    // Overload rejections are failed operations only; any other failure,
    // a solve residual above kMaxResidual included, also fails the run.
    std::size_t bad = 0;
    for (const Outcome& o : rr.outcomes) {
      report.attempt(o.ok);
      bad += !o.ok && !o.rejected ? 1 : 0;
    }
    report.check(bad == 0, "service_mix: " + std::to_string(bad) +
                               " requests failed or had a residual above " +
                               sci(kMaxResidual));
  };

  // One open-loop segment: the generator sends on schedule, the collector
  // records when each future becomes ready, then the service drains.
  auto run_segment = [&](const Segment& seg) {
    const std::vector<Request>& reqs = seg.reqs;
    RateResult rr;
    rr.outcomes.resize(reqs.size());
    const gofmm::service::ServiceStats s0 = svc->stats();
    struct Pending {
      std::size_t idx;
      Clock::time_point due;
      Future fut;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> inbox;  // guarded by mu
    bool sent_all = false;      // guarded by mu
    std::atomic<std::size_t> finished{0};  // ready or refused
    Tracer::Scope segment_span(tracer, "segment");
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    std::thread collector([&] {
      std::vector<Pending> live;
      for (;;) {
        {
          std::unique_lock<std::mutex> lk(mu);
          if (live.empty())
            cv.wait(lk, [&] { return !inbox.empty() || sent_all; });
          while (!inbox.empty()) {
            live.push_back(std::move(inbox.front()));
            inbox.pop_front();
          }
          if (live.empty() && sent_all) return;
        }
        // Block briefly on the oldest, then sweep every live future.
        live.front().fut.wait_for(std::chrono::microseconds(50));
        for (auto it = live.begin(); it != live.end();) {
          if (it->fut.wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
            ++it;
            continue;
          }
          settle(reqs[it->idx], rr.outcomes[it->idx], it->due, it->fut);
          it = live.erase(it);
          finished.fetch_add(1);
        }
      }
    });
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(reqs[i].due));
      std::this_thread::sleep_until(due);
      rr.outcomes[i].late = seconds_between(due, Clock::now());
      Future fut;
      if (!send(reqs[i], rr.outcomes[i], fut)) {
        finished.fetch_add(1);
        continue;
      }
      std::lock_guard<std::mutex> lk(mu);
      inbox.push_back({i, due, std::move(fut)});
      cv.notify_one();
    }
    const std::size_t outstanding = reqs.size() - finished.load();
    rr.backlog = double(outstanding) > kBacklogShare * double(reqs.size()) +
                                           kRates[seg.rate] * kLimitMs * 1e-3;
    {
      std::lock_guard<std::mutex> lk(mu);
      sent_all = true;
    }
    cv.notify_one();
    collector.join();
    rr.seconds = seconds_between(start, Clock::now());
    finish(seg, rr, s0);
    return rr;
  };

  // The closed loop: kWindow caller threads, each sending the next request
  // of the stream as soon as its previous reply arrived, for `seconds`.
  // A caller blocks on its own future, so latency is exact and no thread
  // polls.
  auto run_closed = [&](const Segment& seg) {
    const std::vector<Request>& reqs = seg.reqs;
    RateResult rr;
    rr.outcomes.resize(reqs.size());
    const gofmm::service::ServiceStats s0 = svc->stats();
    std::atomic<std::size_t> next{0};
    Tracer::Scope segment_span(tracer, "segment");
    const auto start = Clock::now();
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kWindow; ++c)
      callers.emplace_back([&] {
        while (seconds_between(start, Clock::now()) < seg.seconds) {
          const std::size_t i = next.fetch_add(1);
          if (i >= reqs.size()) return;
          const auto sent = Clock::now();
          Future fut;
          if (!send(reqs[i], rr.outcomes[i], fut)) continue;
          fut.wait();
          settle(reqs[i], rr.outcomes[i], sent, fut);
        }
      });
    for (std::thread& t : callers) t.join();
    rr.seconds = seconds_between(start, Clock::now());
    rr.outcomes.resize(std::min(next.load(), reqs.size()));
    finish(seg, rr, s0);
    return rr;
  };

  // A served matvec must match the cached operator's own apply(), and no
  // operator may have been rebuilt during traffic.
  auto check_outputs = [&] {
    double worst = 0;
    for (std::size_t d = 0; d < kDatasets.size(); ++d) {
      const auto entry = svc->cache().acquire(spec_of(d, lambdas[d]));
      for (const auto& [col, u] : kept[d]) {
        const Matrix direct = entry->op->apply(pools[d].block(0, col, kN, 1));
        worst = std::max(worst, gofmm::la::diff_fro(u, direct) /
                                    gofmm::la::norm_fro(direct));
      }
    }
    report.check(worst <= kMaxMatvecDiff,
                 "service_mix: served matvec differs from apply() by " +
                     sci(worst));
    report.check(svc->stats().cache.builds == kDatasets.size(),
                 "service_mix: operators were rebuilt during traffic");
  };
  // Sampled ε₂ of each served operator; each must meet the bound.
  auto served_errors = [&] {
    std::vector<double> eps;
    for (std::size_t d = 0; d < kDatasets.size(); ++d) {
      const auto entry = svc->cache().acquire(spec_of(d, lambdas[d]));
      eps.push_back(probe_error(*entry->op, *mats.at(kDatasets[d]), kErrRows,
                                derive(args.seed, 2)));
      report.check(eps.back() <= kMaxRelErrBudget0,
                   "service_mix: " + kDatasets[d] + " eps2 " +
                       sci(eps.back()) + " above bound");
      std::fprintf(stderr, "  %s eps2 %.4e\n", kDatasets[d].c_str(),
                   eps.back());
    }
    return eps;
  };

  if (!args.trace) {
    const double setup_s = plain_setups();
    const RateResult r = run_closed(closed_loop(args.seconds, 90));
    const double rss = peak_rss_mb();
    check_outputs();
    std::fprintf(stderr,
                 "  closed loop of %zu: %zu requests, %llu retunes, "
                 "%.1f columns per batch\n",
                 kWindow, r.outcomes.size(), (unsigned long long)r.retunes,
                 double(r.columns) / double(std::max<std::uint64_t>(
                                         r.batches, 1)));
    double mean_eps = 0;
    for (double e : served_errors()) mean_eps += e / double(kDatasets.size());
    report_end_to_end(report, setup_s, rss, r.latencies(), r.throughput(),
                      mean_eps);
    return;
  }

  const double gemm_peak = gemm_peak_gflops();
  report_machine(report, gemm_peak);
  tracer.set_enabled(false);
  const double plain_setup = plain_setups();
  tracer.set_enabled(true);
  double traced_setup = 0;
  {
    Tracer::Scope span(tracer, "setup");
    traced_setup = setup(true, 0);
  }
  // Compression and factorization run inside the cache's builder, so their
  // figures are the program-reported stats, summed over the operators.
  gofmm::CompressionStats cs;
  double factorize_s = 0, factor_mb = 0, factor_flops = 0;
  for (std::size_t d = 0; d < kDatasets.size(); ++d) {
    const auto entry = svc->cache().acquire(spec_of(d, lambdas[d]));
    const auto& op = dynamic_cast<const CompressedMatrix<double>&>(*entry->op);
    const gofmm::CompressionStats& s = op.stats();
    cs.ann_seconds += s.ann_seconds;
    cs.tree_seconds += s.tree_seconds;
    cs.lists_seconds += s.lists_seconds;
    cs.skel_seconds += s.skel_seconds;
    cs.cache_seconds += s.cache_seconds;
    cs.skel_flops += s.skel_flops;
    cs.cached_bytes += s.cached_bytes;
    const double share = 1.0 / double(kDatasets.size());
    cs.avg_rank += share * s.avg_rank;
    cs.near_fraction += share * s.near_fraction;
    cs.ann_recall += share * s.ann_recall;
    const gofmm::FactorizationStats fs = op.factorization_stats();
    factorize_s += fs.seconds;
    factor_mb += double(fs.memory_bytes) / 1e6;
    factor_flops += double(fs.flops);
  }
  report_compression(report, cs);
  report.detail("factorization.factorize_s", factorize_s, "s");
  report.detail("factorization.gflops", factor_flops * 1e-9 / factorize_s,
                "GF/s");
  report.detail("factorization.memory_mb", factor_mb, "MB");

  // The closed loop untraced, then traced (tracing overhead), then the
  // open loop, traced.
  const std::uint64_t larft0 = gofmm::la::larft_calls();
  tracer.set_enabled(false);
  const RateResult plain = run_closed(closed_loop(args.seconds / 4, 90));
  tracer.set_enabled(true);
  const RateResult traced = run_closed(closed_loop(args.seconds / 4, 91));
  report.metric("trace.setup_overhead", traced_setup / plain_setup, "ratio");
  report.metric("trace.op_overhead", traced.latency(50) / plain.latency(50),
                "ratio");
  report.metric("op_p90_ms", 1e3 * plain.latency(90), "ms");

  std::vector<RateResult> rates(kRates.size());
  std::vector<std::vector<RateResult>> per_cycle(
      kCycles, std::vector<RateResult>(kRates.size()));
  RateResult all_open;
  for (const Segment& seg : open_loop()) {
    const RateResult r = run_segment(seg);
    rates[seg.rate].add(r);
    per_cycle[std::size_t(seg.cycle)][seg.rate].add(r);
    all_open.add(r);
  }
  for (std::size_t i = 0; i < rates.size(); ++i)
    std::fprintf(stderr,
                 "  %6.0f req/s: %zu requests, p50 %.2f ms, p99 %.2f ms, "
                 "backlog %d, retunes %llu / %d switches\n",
                 kRates[i], rates[i].outcomes.size(),
                 1e3 * rates[i].latency(50), 1e3 * rates[i].latency(99),
                 int(rates[i].backlog), (unsigned long long)rates[i].retunes,
                 rates[i].switches);
  // svc_max_rate from the better cycle: a host stall of a few tens of ms
  // inside one short segment pushes that segment's p99 past the limit and
  // halved the pooled figure in 3 of 10 runs; a regression of the service
  // itself shows in every cycle.
  double best_rate = 0;
  for (const auto& cyc : per_cycle)
    best_rate = std::max(best_rate, max_rate(cyc));
  report.detail("svc_p50_ms", 1e3 * rates[0].latency(50), "ms");
  report.detail("svc_p99_ms", 1e3 * rates[0].latency(99), "ms");
  report.detail("svc_max_rate", best_rate, "req/s");
  report.detail("la.larft_calls", double(gofmm::la::larft_calls() - larft0),
                "count");
  check_outputs();
  const gofmm::service::ServiceStats st = svc->stats();

  // The evaluator and retunes run inside the service. Measure the evaluator
  // by the single-column apply() a matvec request makes, on each operator,
  // and report K04's last retune as the program reports it.
  {
    double flops = 0, seconds = 0;
    for (std::size_t d = 0; d < kDatasets.size(); ++d) {
      const auto entry = svc->cache().acquire(spec_of(d, lambdas[d]));
      gofmm::EvalWorkspace<double> ws;
      const Matrix w = pools[d].block(0, 0, kN, 1);
      (void)entry->op->apply(w, ws);  // sizes the workspace
      const auto t = time_repeated(0, 20, [&](int) {
        Tracer::Scope span(tracer, "apply");
        (void)entry->op->apply(w, ws);
      });
      flops += double(ws.last.flops);
      seconds += percentile(t, 50);
    }
    const double n = double(kDatasets.size());
    report_evaluator(report, flops / n, seconds / n, gemm_peak);
    const auto k04 = svc->cache().acquire(spec_of(kSwitching, switching[0]));
    const gofmm::FactorizationStats fs =
        k04->op->factorizable()->factorization_stats();
    report.detail("factorization.retune_gflops",
                  double(fs.flops) * 1e-9 / fs.seconds, "GF/s");
  }
  {
    const std::vector<double> eps = served_errors();
    for (std::size_t d = 0; d < kDatasets.size(); ++d)
      report.detail("matvec_rel_err." + kDatasets[d], eps[d], "ratio");
  }

  std::vector<double> queue, sweep, late;
  double rejected = 0, failed = 0;
  for (const Outcome& o : all_open.outcomes) {
    late.push_back(o.late);
    rejected += o.rejected ? 1 : 0;
    failed += !o.ok && !o.rejected ? 1 : 0;
  }
  for (const Outcome& o : rates[0].outcomes)
    if (o.ok) {
      queue.push_back(o.queue_s);
      sweep.push_back(o.sweep_s);
    }
  // Queue and sweep time at the reference rate (they make up svc_p50_ms);
  // batch width at a high rate (it bounds svc_max_rate); retunes per λ flip
  // at the reference rate (waste above 1 lengthens svc_p99_ms).
  const RateResult& high = rates[kHighRate];
  report.detail("service.queue_ms_p50", 1e3 * percentile(queue, 50), "ms");
  report.detail("service.sweep_ms_p50", 1e3 * percentile(sweep, 50), "ms");
  report.detail("service.batch_width_avg",
                double(high.columns) / double(std::max<std::uint64_t>(
                                           high.batches, 1)),
                "cols");
  report.detail("service.retunes_per_switch",
                double(rates[0].retunes) /
                    double(std::max(rates[0].switches, 1)),
                "ratio");
  report.detail("service.builds", double(st.cache.builds), "count");
  report.detail("service.rejected", rejected, "count");
  report.detail("service.failed", failed, "count");
  report.detail("service.gen_late_ms", 1e3 * percentile(late, 99), "ms");
  if (!args.trace_file.empty())
    report.check(tracer.write_chrome_trace(args.trace_file),
                 "cannot write " + args.trace_file);

  // 1-thread column: a fresh service with one executor and one compression
  // worker under one OpenMP thread, then a short closed loop.
  {
    ThreadBudget one(1);
    tracer.set_enabled(false);
    const double setup1 = setup(false, 1);
    const RateResult r1 = run_closed(closed_loop(args.seconds / 8, 92));
    report.metric("scaling.setup", setup1 / plain_setup, "ratio");
    report.metric("scaling.op", r1.latency(50) / plain.latency(50), "ratio");
  }
}

}  // namespace perfbench
