#include "baselines/hodlr.hpp"

#include <functional>
#include <numeric>

#include "core/hss_view.hpp"
#include "la/blas.hpp"
#include "la/flops.hpp"
#include "util/timer.hpp"

namespace gofmm {

/// HssView over an HODLR baseline: identity row ordering, leaf dense
/// diagonals, and EXPLICIT (non-nested) bases — a node's parent-facing
/// basis is its slice of the parent's off-diagonal factorization
/// K(l, r) ≈ U₁₂ V₁₂ᵀ (U₁₂ for the left child, V₁₂ᵀ for the right), with
/// the identity as coupling B. The shared ULV engine's Explicit path then
/// computes each Φ by a subtree solve — the classical O(N log² N) HODLR
/// factorization. Only alive inside factorize().
template <typename T>
class HodlrView final : public HssView<T> {
  using HNode = typename baseline::Hodlr<T>::HNode;

 public:
  explicit HodlrView(const baseline::Hodlr<T>& h) {
    this->n_ = h.n_;
    this->root_ = 0;
    flatten(h.root_.get(), HssTopoNode::kNone, 0);
  }

  la::Matrix<T> leaf_diag(index_t id) const override {
    return nodes_[std::size_t(id)]->diag;
  }

  index_t basis_rank(index_t id) const override {
    const index_t parent = this->topo_[std::size_t(id)].parent;
    if (parent == HssTopoNode::kNone) return 0;
    return nodes_[std::size_t(parent)]->u12.cols();
  }

  BasisKind basis_kind() const override { return BasisKind::Explicit; }

  la::Matrix<T> basis(index_t id) const override {
    const HssTopoNode& t = this->topo_[std::size_t(id)];
    const HNode* parent = nodes_[std::size_t(t.parent)];
    const bool is_left = this->topo_[std::size_t(t.parent)].left == id;
    // u12 is |l|-by-r; v12 is r-by-|r| (the block is u12 · v12).
    return is_left ? parent->u12 : parent->v12.transposed();
  }

  la::Matrix<T> coupling(index_t id) const override {
    // B = I for an HODLR block (K(l, r) ≈ U₁₂ V₁₂ᵀ IS the factored
    // coupling). Return the empty matrix — the HssView identity-coupling
    // convention — so the engine skips every GEMM against B instead of
    // multiplying by a materialised identity.
    (void)id;
    return la::Matrix<T>();
  }

 private:
  void flatten(const HNode* node, index_t parent, index_t level) {
    const index_t id = index_t(this->topo_.size());
    this->topo_.push_back(HssTopoNode{});
    nodes_.push_back(node);
    HssTopoNode& t = this->topo_[std::size_t(id)];
    t.id = id;
    t.level = level;
    t.row_begin = node->begin;  // input ordering == tree ordering
    t.count = node->count;
    t.parent = parent;
    if (!node->is_leaf()) {
      // Children get the next free ids; fix up after both subtrees exist
      // (flatten() may reallocate topo_, so re-index instead of holding a
      // reference across the recursion).
      const index_t left_id = index_t(this->topo_.size());
      flatten(node->left.get(), id, level + 1);
      const index_t right_id = index_t(this->topo_.size());
      flatten(node->right.get(), id, level + 1);
      this->topo_[std::size_t(id)].left = left_id;
      this->topo_[std::size_t(id)].right = right_id;
    }
  }

  std::vector<const HNode*> nodes_;
};

template class HodlrView<float>;
template class HodlrView<double>;

}  // namespace gofmm

namespace gofmm::baseline {

template <typename T>
Hodlr<T>::Hodlr(const SPDMatrix<T>& k, const HodlrOptions& options)
    : n_(k.size()), options_(options) {
  Timer timer;
  root_ = std::make_unique<HNode>();
  root_->begin = 0;
  root_->count = n_;
  build(root_.get(), k);
  stats_.compress_seconds = timer.seconds();
  double sum = 0;
  index_t cnt = 0;
  collect_ranks(root_.get(), sum, cnt);
  stats_.avg_rank = cnt > 0 ? sum / double(cnt) : 0;
}

template <typename T>
void Hodlr<T>::build(HNode* node, const SPDMatrix<T>& k) {
  if (node->count <= options_.leaf_size) {
    std::vector<index_t> idx(static_cast<std::size_t>(node->count));
    std::iota(idx.begin(), idx.end(), node->begin);
    node->diag = k.submatrix(idx, idx);
    stats_.entries += std::uint64_t(node->count) * std::uint64_t(node->count);
    return;
  }
  const index_t half = node->count - node->count / 2;
  node->left = std::make_unique<HNode>();
  node->right = std::make_unique<HNode>();
  node->left->begin = node->begin;
  node->left->count = half;
  node->right->begin = node->begin + half;
  node->right->count = node->count - half;

  // Off-diagonal block K(l, r) via ACA in the input ordering.
  std::vector<index_t> li(static_cast<std::size_t>(half));
  std::vector<index_t> ri(static_cast<std::size_t>(node->count - half));
  std::iota(li.begin(), li.end(), node->left->begin);
  std::iota(ri.begin(), ri.end(), node->right->begin);
  AcaResult<T> lr =
      aca(k, li, ri, T(options_.tolerance), options_.max_rank);
  node->u12 = std::move(lr.u);
  node->v12 = std::move(lr.v);
  stats_.entries += std::uint64_t(lr.entries_evaluated);
  stats_.max_rank = std::max(stats_.max_rank, lr.rank);

  build(node->left.get(), k);
  build(node->right.get(), k);
}

template <typename T>
void Hodlr<T>::apply_node(const HNode* node, const la::Matrix<T>& w,
                          la::Matrix<T>& u, EvalWorkspace<T>& ws) const {
  const index_t r = w.cols();
  if (node->is_leaf()) {
    const la::Matrix<T> wloc = w.block(node->begin, 0, node->count, r);
    la::Matrix<T> uloc(node->count, r);
    la::gemm(la::Op::None, la::Op::None, T(1), node->diag, wloc, T(0), uloc);
    ws.flops.fetch_add(
        la::FlopCounter::gemm_flops(node->count, r, node->count),
        std::memory_order_relaxed);
    for (index_t j = 0; j < r; ++j) {
      T* dst = u.col(j) + node->begin;
      const T* src = uloc.col(j);
      for (index_t i = 0; i < node->count; ++i) dst[i] += src[i];
    }
    return;
  }
  const HNode* l = node->left.get();
  const HNode* rt = node->right.get();
  const index_t rank = node->u12.cols();
  if (rank > 0) {
    ws.flops.fetch_add(2 * (la::FlopCounter::gemm_flops(rank, r, rt->count) +
                            la::FlopCounter::gemm_flops(l->count, r, rank)),
                       std::memory_order_relaxed);
    // u_l += U (V w_r) and u_r += V^T (U^T w_l).
    const la::Matrix<T> wr = w.block(rt->begin, 0, rt->count, r);
    la::Matrix<T> tmp(rank, r);
    la::gemm(la::Op::None, la::Op::None, T(1), node->v12, wr, T(0), tmp);
    la::Matrix<T> ul(l->count, r);
    la::gemm(la::Op::None, la::Op::None, T(1), node->u12, tmp, T(0), ul);
    for (index_t j = 0; j < r; ++j) {
      T* dst = u.col(j) + l->begin;
      const T* src = ul.col(j);
      for (index_t i = 0; i < l->count; ++i) dst[i] += src[i];
    }
    const la::Matrix<T> wl = w.block(l->begin, 0, l->count, r);
    la::Matrix<T> tmp2(rank, r);
    la::gemm(la::Op::Trans, la::Op::None, T(1), node->u12, wl, T(0), tmp2);
    la::Matrix<T> ur(rt->count, r);
    la::gemm(la::Op::Trans, la::Op::None, T(1), node->v12, tmp2, T(0), ur);
    for (index_t j = 0; j < r; ++j) {
      T* dst = u.col(j) + rt->begin;
      const T* src = ur.col(j);
      for (index_t i = 0; i < rt->count; ++i) dst[i] += src[i];
    }
  }
  apply_node(l, w, u, ws);
  apply_node(rt, w, u, ws);
}

template <typename T>
la::Matrix<T> Hodlr<T>::do_apply(const la::Matrix<T>& w,
                                 EvalWorkspace<T>& ws) const {
  // Stateless recursion: no per-node scratch, so the workspace only
  // carries the timing/flop bookkeeping.
  la::Matrix<T> u(n_, w.cols());
  apply_node(root_.get(), w, u, ws);
  return u;
}

template <typename T>
std::uint64_t Hodlr<T>::memory_bytes() const {
  std::uint64_t bytes = 0;
  std::function<void(const HNode*)> visit = [&](const HNode* node) {
    bytes += std::uint64_t(node->diag.size() + node->u12.size() +
                           node->v12.size()) *
             sizeof(T);
    if (!node->is_leaf()) {
      visit(node->left.get());
      visit(node->right.get());
    }
  };
  visit(root_.get());
  return bytes + this->factor_bytes();
}

template <typename T>
OperatorStats Hodlr<T>::operator_stats() const {
  OperatorStats out;
  out.compress_seconds = stats_.compress_seconds;
  out.avg_rank = stats_.avg_rank;
  out.max_rank = stats_.max_rank;
  out.memory_bytes = memory_bytes();
  return out;
}

template <typename T>
std::unique_ptr<const HssView<T>> Hodlr<T>::hss_view() const {
  return std::make_unique<HodlrView<T>>(*this);
}

template <typename T>
void Hodlr<T>::collect_ranks(const HNode* node, double& sum,
                             index_t& cnt) const {
  if (node->is_leaf()) return;
  sum += double(node->u12.cols());
  cnt += 1;
  collect_ranks(node->left.get(), sum, cnt);
  collect_ranks(node->right.get(), sum, cnt);
}

template class Hodlr<float>;
template class Hodlr<double>;

}  // namespace gofmm::baseline
