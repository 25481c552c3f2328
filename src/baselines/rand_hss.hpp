// STRUMPACK-like randomized HSS baseline (paper Table 3).
//
// Builds a hierarchically semi-separable approximation in the input
// (lexicographic) ordering from a dense random sketch Y = K Ω, following
// Martinsson's randomized HSS construction. The sketch costs O(N² p) entry
// work — exactly the quadratic compression cost the paper attributes to
// STRUMPACK's black-box dense path — and the matvec afterwards is O(N r).
#pragma once

#include <memory>

#include "core/hierarchical_operator.hpp"
#include "core/spd_matrix.hpp"
#include "la/matrix.hpp"

namespace gofmm::baseline {

struct RandHssOptions {
  index_t leaf_size = 128;
  index_t max_rank = 128;     ///< HSS rank cap per node
  double tolerance = 1e-5;    ///< ID truncation tolerance
  index_t oversampling = 10;  ///< sketch columns p = max_rank + oversampling
  std::uint64_t seed = 99;
};

struct RandHssStats {
  double sketch_seconds = 0;    ///< the O(N² p) dense sampling
  double build_seconds = 0;     ///< the hierarchical IDs
  double avg_rank = 0;
  index_t max_rank = 0;
};

}  // namespace gofmm::baseline

namespace gofmm {
template <typename T>
class RandHssView;  // baselines/rand_hss.cpp (HssView over this baseline)
}  // namespace gofmm

namespace gofmm::baseline {

/// Randomized HSS compression of an SPD matrix (symmetric: row and column
/// bases coincide). Implements CompressedOperator: the upward/downward
/// sweeps stage their per-node vectors in the caller's EvalWorkspace
/// (ws.up = skeleton weights w̃, ws.down = skeleton potentials ũ, indexed
/// by node id), so concurrent matvecs on one object never collide.
///
/// Through HierarchicalOperator it is also Factorizable: the
/// randomized-HSS structure is exactly the nested form the shared ULV
/// engine eliminates, so solve()/logdet() invert the compressed operator
/// to round-off — same engine, same level-parallel blocked sweep as the
/// GOFMM path.
template <typename T>
class RandHss final : public HierarchicalOperator<T> {
 public:
  RandHss(const SPDMatrix<T>& k, const RandHssOptions& options);

  /// u = H̃ w for N-by-r right-hand sides (alias of apply()).
  [[nodiscard]] la::Matrix<T> matvec(const la::Matrix<T>& w) const {
    return this->apply(w);
  }

  // --- CompressedOperator interface ---
  [[nodiscard]] index_t size() const override { return n_; }
  [[nodiscard]] std::string name() const override { return "rand_hss"; }
  [[nodiscard]] std::uint64_t memory_bytes() const override;
  [[nodiscard]] OperatorStats operator_stats() const override;

  [[nodiscard]] const RandHssStats& stats() const { return stats_; }

 protected:
  la::Matrix<T> do_apply(const la::Matrix<T>& w,
                         EvalWorkspace<T>& ws) const override;
  /// The nested-basis RandHssView the inherited factorize() eliminates.
  std::unique_ptr<const HssView<T>> hss_view() const override;

 private:
  friend class gofmm::RandHssView<T>;

  struct HssNode {
    index_t id = 0;  ///< dense 0..num_nodes-1, indexes workspace slots
    index_t begin = 0;
    index_t count = 0;
    std::vector<index_t> skel;  ///< global skeleton row/col indices
    la::Matrix<T> u;     ///< interpolation basis (rows-by-rank, nested)
    la::Matrix<T> diag;  ///< leaf dense diagonal
    la::Matrix<T> b;     ///< sibling coupling K(l̃, r̃) stored at parent
    std::unique_ptr<HssNode> left, right;
    [[nodiscard]] bool is_leaf() const { return left == nullptr; }
  };

  void build(HssNode* node, const SPDMatrix<T>& k, const la::Matrix<T>& omega,
             const la::Matrix<T>& sample);
  void upward(const HssNode* node, const la::Matrix<T>& w,
              EvalWorkspace<T>& ws) const;
  void downward(const HssNode* node, la::Matrix<T>& u,
                EvalWorkspace<T>& ws) const;

  index_t n_;
  index_t num_nodes_ = 0;
  RandHssOptions options_;
  std::unique_ptr<HssNode> root_;
  RandHssStats stats_;
};

extern template class RandHss<float>;
extern template class RandHss<double>;

}  // namespace gofmm::baseline
