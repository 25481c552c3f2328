// FLOP-count bookkeeping used to report the paper's "GFs" columns.
#pragma once

#include <cstdint>

#include "util/common.hpp"

namespace gofmm::la {

/// Floating-point operation count models. The counts follow Table 2 of the
/// paper (2mnk per GEMM, 2mn^2 per QR, ...).
class FlopCounter {
 public:
  static constexpr std::uint64_t gemm_flops(index_t m, index_t n, index_t k) {
    return 2ull * std::uint64_t(m) * std::uint64_t(n) * std::uint64_t(k);
  }
  static constexpr std::uint64_t qr_flops(index_t m, index_t n,
                                          index_t rank) {
    return 2ull * std::uint64_t(m) * std::uint64_t(n) * std::uint64_t(rank);
  }
  static constexpr std::uint64_t trsm_flops(index_t n, index_t nrhs) {
    return std::uint64_t(n) * std::uint64_t(n) * std::uint64_t(nrhs);
  }
};

}  // namespace gofmm::la
