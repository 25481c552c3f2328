#include "service/operator_cache.hpp"

#include <sstream>

namespace gofmm::service {

namespace {

// Exact, locale-independent float image (hexfloat round-trips bit-for-bit,
// so 1e-5 and the nearest double to it never collide or split keys).
void put(std::ostringstream& out, const char* tag, double v) {
  out << tag << '=' << std::hexfloat << v << std::defaultfloat << ';';
}

void put(std::ostringstream& out, const char* tag, long long v) {
  out << tag << '=' << v << ';';
}

}  // namespace

std::string config_fingerprint(const Config& config) {
  std::ostringstream out;
  put(out, "m", (long long)config.leaf_size);
  put(out, "s", (long long)config.max_rank);
  put(out, "tau", config.tolerance);
  put(out, "kappa", (long long)config.kappa);
  put(out, "budget", config.budget);
  out << "dist=" << tree::to_string(config.distance) << ';';
  put(out, "cache", (long long)config.cache_blocks);
  put(out, "sym", (long long)config.symmetric_near);
  put(out, "nsamp", (long long)config.neighbor_sampling);
  put(out, "sf", config.sample_factor);
  put(out, "sx", (long long)config.sample_extra);
  put(out, "seed", (long long)config.seed);
  put(out, "anni", (long long)config.ann_max_iterations);
  put(out, "annr", config.ann_target_recall);
  return out.str();
}

std::string OperatorSpec::structure_key() const {
  const char* elim = factorize.elimination == Elimination::Auto       ? "auto"
                     : factorize.elimination == Elimination::Cholesky ? "chol"
                                                                      : "ldlt";
  // Precision is load-bearing: a MixedF32 factorization holds float
  // factors, a Double one holds doubles — aliasing them under one key
  // would hand half the requests the wrong storage policy.
  const char* prec = factorize.precision == Precision::MixedF32 ? "f32" : "f64";
  return dataset + '|' + config_fingerprint(config) + '|' + elim + '|' + prec;
}

}  // namespace gofmm::service
