#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>

#include "la/blas.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {

namespace {

// Small dense per-thread id, shared by the tracer and the oracle slots.
std::uint32_t thread_ordinal() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

thread_local std::int64_t t_open_span = -1;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3e", v);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

int default_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

// ---------------------------------------------------------------- Report --

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::detail(const std::string& name, double value,
                    const std::string& unit) {
  details_.push_back({name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

namespace {

std::string metrics_json(const std::vector<Report::Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += json_escape(ms[i].name);
    out += "\": {\"value\": ";
    out += number(ms[i].value);
    out += ", \"unit\": \"";
    out += json_escape(ms[i].unit);
    out += "\"}";
  }
  return out + "}";
}

}  // namespace

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": " + metrics_json(metrics_) + "}";
  return out;
}

bool Report::write_layers(const std::string& path,
                          const std::string& workload) const {
  std::vector<Metric> all = metrics_;
  all.insert(all.end(), details_.begin(), details_.end());
  std::ofstream out(path);
  out << "{\"workload\": \"" << json_escape(workload)
      << "\", \"metrics\": " << metrics_json(all) << "}\n";
  return bool(out);
}

void Report::print_table() const {
  for (const auto* list : {&metrics_, &details_})
    for (const Metric& m : *list)
      std::fprintf(stderr, "  %-32s %14.6g %s%s\n", m.name.c_str(), m.value,
                   m.unit.c_str(), list == &details_ ? "  (layers file)" : "");
  std::fprintf(stderr, "  attempted %llu, failed %llu, correct %s\n",
               (unsigned long long)attempted_, (unsigned long long)failed_,
               correct_ ? "yes" : "NO");
}

// ---------------------------------------------------------------- Tracer --

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t request)
    : tracer_(&tracer) {
  if (!tracer.enabled()) return;
  saved_parent_ = t_open_span;
  id_ = tracer.open(name, request, t_open_span);
  t_open_span = id_;
}

Tracer::Scope::~Scope() {
  if (id_ < 0) return;
  tracer_->close(id_);
  t_open_span = saved_parent_;
}

std::int64_t Tracer::open(const char* name, std::uint64_t request,
                          std::int64_t parent) {
  const double t = now();
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({name, t, t, parent, request, thread_ordinal()});
  return std::int64_t(spans_.size()) - 1;
}

void Tracer::close(std::int64_t id) {
  const double t = now();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[std::size_t(id)].t1 = t;
}

void Tracer::record(const char* name, Clock::time_point t0,
                    Clock::time_point t1, std::uint64_t request) {
  if (!enabled_) return;
  Span s{name, seconds_between(epoch_, t0), seconds_between(epoch_, t1), -1,
         request, thread_ordinal()};
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(s));
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.t1 - s.t0);
  return out;
}

double Tracer::total_seconds(const std::string& name) const {
  double sum = 0;
  for (double d : durations(name)) sum += d;
  return sum;
}

std::vector<double> Tracer::self_times() const {
  // Union of each span's direct children, clipped to the span itself.
  std::map<std::int64_t, std::vector<std::pair<double, double>>> kids;
  for (const Span& s : spans_)
    if (s.parent >= 0) kids[s.parent].push_back({s.t0, s.t1});
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    double covered = 0;
    if (auto it = kids.find(std::int64_t(i)); it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double lo = s.t0, hi = s.t0;
      for (auto [a, b] : iv) {
        a = std::clamp(a, s.t0, s.t1);
        b = std::clamp(b, s.t0, s.t1);
        if (a > hi) {
          covered += hi - lo;
          lo = a;
        }
        hi = std::max(hi, b);
      }
      covered += hi - lo;
    }
    self[i] = (s.t1 - s.t0) - covered;
  }
  return self;
}

double Tracer::self_seconds(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const std::vector<double> self = self_times();
  double sum = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name) sum += self[i];
  return sum;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<double> self = self_times();
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"name\": \"" << json_escape(s.name)
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
        << ", \"ts\": " << number(s.t0 * 1e6)
        << ", \"dur\": " << number((s.t1 - s.t0) * 1e6)
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request
        << ", \"self_us\": " << number(self[i] * 1e6) << "}}";
  }
  out << "\n]}\n";
  return bool(out);
}

// -------------------------------------------------------- CountingOracle --

template <typename T>
void CountingOracle<T>::tally(std::uint64_t n, Clock::duration d) const {
  Slot& s = slots_[thread_ordinal() % kSlots];
  s.entries.fetch_add(n, std::memory_order_relaxed);
  s.nanos.fetch_add(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count(),
      std::memory_order_relaxed);
}

template <typename T>
std::uint64_t CountingOracle<T>::entries() const {
  std::uint64_t sum = 0;
  for (const Slot& s : slots_) sum += s.entries.load(std::memory_order_relaxed);
  return sum;
}

template <typename T>
double CountingOracle<T>::busy_seconds() const {
  std::int64_t sum = 0;
  for (const Slot& s : slots_) sum += s.nanos.load(std::memory_order_relaxed);
  return double(sum) * 1e-9;
}

template class CountingOracle<double>;

// ------------------------------------------------------------- GEMM peak --

double gemm_peak_gflops() {
  namespace la = gofmm::la;
  constexpr index_t n = 512;
  const auto a = la::Matrix<double>::random_normal(n, n, 1);
  const auto b = la::Matrix<double>::random_normal(n, n, 2);
  la::Matrix<double> c(n, n);
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 6; ++rep) {  // the first call warms caches/teams
    const auto t0 = Clock::now();
    la::gemm(la::Op::None, la::Op::None, 1.0, a, b, 0.0, c);
    const double t = seconds_between(t0, Clock::now());
    if (rep > 0) best = std::min(best, t);
  }
  return 2.0 * double(n) * double(n) * double(n) * 1e-9 / best;
}

}  // namespace perfbench
