// HODLR baseline (paper Table 3): hierarchically off-diagonal low-rank
// approximation in the input (lexicographic) ordering with ACA-compressed
// off-diagonal blocks — the structure of the Ambikasaran-Darve HODLR
// library. S = 0, bases are NOT nested, so the matvec is O(N log N).
#pragma once

#include <memory>

#include "baselines/aca.hpp"
#include "core/hierarchical_operator.hpp"
#include "core/spd_matrix.hpp"
#include "la/matrix.hpp"

namespace gofmm {
template <typename T>
class HodlrView;  // baselines/hodlr.cpp (HssView over this baseline)
}  // namespace gofmm

namespace gofmm::baseline {

struct HodlrOptions {
  index_t leaf_size = 128;
  double tolerance = 1e-5;   ///< ACA relative stopping tolerance
  index_t max_rank = 512;    ///< rank cap per off-diagonal block
};

/// Statistics mirroring the paper's Table 3 columns.
struct HodlrStats {
  double compress_seconds = 0;
  double avg_rank = 0;          ///< mean off-diagonal block rank
  index_t max_rank = 0;
  std::uint64_t entries = 0;    ///< oracle entries evaluated
};

/// HODLR compression of an SPD matrix. Implements CompressedOperator (the
/// matvec is const and thread-safe: the tree is immutable after build and
/// the recursion carries no per-node scratch) and, through
/// HierarchicalOperator, the Factorizable capability: an HODLR
/// off-diagonal block K(l, r) ≈ U₁₂ V₁₂ᵀ is the coupling W M Wᵀ with
/// explicit (non-nested) bases V_l = U₁₂, V_r = V₁₂ᵀ and B = I, so the
/// shared engine's Explicit basis path reproduces the classical
/// O(N log² N) recursive-Woodbury HODLR direct solver without any
/// HODLR-specific elimination code.
template <typename T>
class Hodlr final : public HierarchicalOperator<T> {
 public:
  Hodlr(const SPDMatrix<T>& k, const HodlrOptions& options);

  /// u = H̃ w for an N-by-r block of right-hand sides (alias of apply()).
  [[nodiscard]] la::Matrix<T> matvec(const la::Matrix<T>& w) const {
    return this->apply(w);
  }

  // --- CompressedOperator interface ---
  [[nodiscard]] index_t size() const override { return n_; }
  [[nodiscard]] std::string name() const override { return "hodlr"; }
  [[nodiscard]] std::uint64_t memory_bytes() const override;
  [[nodiscard]] OperatorStats operator_stats() const override;

  [[nodiscard]] const HodlrStats& stats() const { return stats_; }

 protected:
  la::Matrix<T> do_apply(const la::Matrix<T>& w,
                         EvalWorkspace<T>& ws) const override;
  /// The explicit-basis HodlrView the inherited factorize() eliminates.
  std::unique_ptr<const HssView<T>> hss_view() const override;

 private:
  friend class gofmm::HodlrView<T>;

  struct HNode {
    index_t begin = 0;
    index_t count = 0;
    la::Matrix<T> diag;  ///< dense diagonal block (leaves only)
    // Off-diagonal K(l, r) ≈ u12 * v12; K(r, l) = (u12 v12)^T by symmetry.
    la::Matrix<T> u12, v12;
    std::unique_ptr<HNode> left, right;
    [[nodiscard]] bool is_leaf() const { return left == nullptr; }
  };

  void build(HNode* node, const SPDMatrix<T>& k);
  void apply_node(const HNode* node, const la::Matrix<T>& w,
                  la::Matrix<T>& u, EvalWorkspace<T>& ws) const;
  void collect_ranks(const HNode* node, double& sum, index_t& cnt) const;

  index_t n_;
  HodlrOptions options_;
  std::unique_ptr<HNode> root_;
  HodlrStats stats_;
};

extern template class Hodlr<float>;
extern template class Hodlr<double>;

}  // namespace gofmm::baseline
