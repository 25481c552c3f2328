// Backend-neutral view of one hierarchically semi-separable (HSS-like)
// operator — the structural contract the shared ULV factorization engine
// (core/factorization.hpp) builds against.
//
// Every hierarchical backend in this library is, algebraically, the same
// object: a binary cluster tree whose leaves own exact diagonal blocks and
// whose interior nodes couple their two children through low-rank bases,
//
//   K̃_p = blkdiag(K̃_l, K̃_r) + W M Wᵀ,
//   W = blkdiag(V_l, V_r),  M = [[0, B], [Bᵀ, 0]].
//
// What differs between backends is bookkeeping, not algebra:
//
//  * GOFMM's CompressedMatrix stores telescoping projection matrices over a
//    metric-tree permutation (nested bases, oracle-evaluated couplings).
//  * The randomized-HSS baseline stores nested interpolation bases and the
//    sibling couplings directly, in the input ordering.
//  * The HODLR baseline stores an explicit (non-nested) basis per level:
//    K(l, r) ≈ U₁₂ V₁₂ᵀ is W M Wᵀ with V_l = U₁₂, V_r = V₁₂ᵀ, B = I.
//
// HssView flattens any of these into a dense-id node array, one basis kind
// (which fixes the elimination structure), and four payload fetchers (leaf
// diagonal, per-node basis/transfer, sibling coupling). The engine
// consumes the view only while factoring; the resulting factorization owns
// a topology snapshot and never touches the view (or the backend) again,
// so solves outlive the view.
#pragma once

#include <vector>

#include "la/matrix.hpp"
#include "util/common.hpp"

namespace gofmm {

/// Topology of one node of a flattened HSS hierarchy. `row_begin/count`
/// reference the tree-ordered row range the node owns; ids are dense in
/// [0, num_nodes) and index the engine's factor arrays.
struct HssTopoNode {
  static constexpr index_t kNone = -1;  ///< "no such node" sentinel id
  index_t id = 0;         ///< dense node id in [0, num_nodes)
  index_t level = 0;      ///< depth, root = 0
  index_t row_begin = 0;  ///< first tree-ordered row owned
  index_t count = 0;      ///< number of rows owned
  index_t parent = kNone; ///< parent id, kNone at the root
  index_t left = kNone;   ///< left child id, kNone at leaves
  index_t right = kNone;  ///< right child id, kNone at leaves
  /// True when the node owns a dense diagonal block (no children).
  [[nodiscard]] bool is_leaf() const { return left == kNone; }
};

/// How a view represents its nodes' parent-facing bases. One kind per
/// view, and it fixes the engine's elimination structure.
enum class BasisKind {
  /// basis(leaf) is the |β|-by-r interpolation basis; basis(interior) is
  /// the (r_l + r_r)-by-r_p transfer map E, so V_p = blkdiag(V_l, V_r) E
  /// telescopes (GOFMM, randomized HSS). The engine eliminates with stored
  /// orthogonal rotations and factors/solves in O(N r² log N) /
  /// O(N r log N).
  Nested,
  /// basis(node) is the full |β|-by-r basis at every node (HODLR): no
  /// telescoping, so the engine runs the Woodbury elimination and computes
  /// each Φ = K̃⁻¹ V by a subtree solve — the classical O(N log² N) HODLR
  /// factorization cost.
  Explicit,
};

/// Read-only structural view of one hierarchical operator. Subclasses are
/// defined next to their backend (they need its internals); the engine
/// sees only this interface.
template <typename T>
class HssView {
 public:
  virtual ~HssView() = default;  ///< views are polymorphic handles

  /// Operator order N.
  [[nodiscard]] index_t size() const { return n_; }
  /// Number of tree nodes (ids are dense in [0, num_nodes())).
  [[nodiscard]] index_t num_nodes() const { return index_t(topo_.size()); }
  /// Id of the root node.
  [[nodiscard]] index_t root() const { return root_; }
  /// Topology record of one node.
  [[nodiscard]] const HssTopoNode& node(index_t id) const {
    return topo_[std::size_t(id)];
  }
  /// The whole dense-id node array (what the engine snapshots).
  [[nodiscard]] const std::vector<HssTopoNode>& nodes() const { return topo_; }

  /// Row permutation: perm()[pos] = external row index at tree-ordered
  /// position pos. Empty means identity (backends built in input order).
  [[nodiscard]] const std::vector<index_t>& perm() const { return perm_; }

  /// Exact leaf diagonal block K(β, β), tree-ordered.
  [[nodiscard]] virtual la::Matrix<T> leaf_diag(index_t id) const = 0;

  /// Declared rank of the node's parent-facing basis; 0 when the node has
  /// none (the root, or an unskeletonized node). A node whose built basis
  /// ends up narrower than this rank is incomplete and degrades its
  /// ancestors to block-diagonal elimination.
  [[nodiscard]] virtual index_t basis_rank(index_t id) const = 0;

  /// Representation of every node's parent-facing basis (see BasisKind).
  [[nodiscard]] virtual BasisKind basis_kind() const = 0;

  /// The basis payload: leaf / Explicit nodes return the |β|-by-r basis,
  /// Nested interior nodes the (r_l + r_r)-by-r_p transfer map.
  [[nodiscard]] virtual la::Matrix<T> basis(index_t id) const = 0;

  /// Sibling coupling B (r_l-by-r_r) of an interior node's children —
  /// K(l̃, r̃) for skeleton backends. Queried only when both children have
  /// complete nonzero-rank bases.
  ///
  /// Identity convention: returning an EMPTY matrix declares B = I (legal
  /// only when r_l == r_r). A view whose couplings are structurally the
  /// identity — HODLR, where K(l, r) ≈ U₁₂ V₁₂ᵀ already IS the factored
  /// coupling — should return empty instead of materialising I: the
  /// engine then skips every GEMM against B (they would be pure copies)
  /// in both the elimination and the solve sweeps, at identical results.
  [[nodiscard]] virtual la::Matrix<T> coupling(index_t id) const = 0;

 protected:
  index_t n_ = 0;                  ///< operator order N
  index_t root_ = 0;               ///< id of the root node
  std::vector<HssTopoNode> topo_;  ///< dense-id node array
  std::vector<index_t> perm_;      ///< tree ordering (empty = identity)
};

}  // namespace gofmm
