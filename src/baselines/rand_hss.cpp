#include "baselines/rand_hss.hpp"

#include <functional>
#include <numeric>

#include "core/hss_view.hpp"
#include "la/blas.hpp"
#include "la/flops.hpp"
#include "la/id.hpp"
#include "util/timer.hpp"

namespace gofmm {

/// HssView over a randomized-HSS baseline: identity row ordering, leaf
/// dense diagonals, nested interpolation bases (leaf U is the |β|-by-r
/// basis, interior U the (r_l + r_r)-by-r_p transfer map), and the stored
/// sibling couplings B = K(l̃, r̃). Only alive inside factorize().
template <typename T>
class RandHssView final : public HssView<T> {
  using HssNode = typename baseline::RandHss<T>::HssNode;

 public:
  explicit RandHssView(const baseline::RandHss<T>& h) {
    this->n_ = h.n_;
    this->root_ = h.root_->id;
    nodes_.assign(std::size_t(h.num_nodes_), nullptr);
    this->topo_.resize(std::size_t(h.num_nodes_));
    flatten(h.root_.get(), HssTopoNode::kNone, 0);
  }

  la::Matrix<T> leaf_diag(index_t id) const override {
    return nodes_[std::size_t(id)]->diag;
  }

  index_t basis_rank(index_t id) const override {
    if (this->topo_[std::size_t(id)].parent == HssTopoNode::kNone) return 0;
    return index_t(nodes_[std::size_t(id)]->skel.size());
  }

  BasisKind basis_kind() const override { return BasisKind::Nested; }

  la::Matrix<T> basis(index_t id) const override {
    return nodes_[std::size_t(id)]->u;
  }

  la::Matrix<T> coupling(index_t id) const override {
    return nodes_[std::size_t(id)]->b;
  }

 private:
  void flatten(const HssNode* node, index_t parent, index_t level) {
    nodes_[std::size_t(node->id)] = node;
    HssTopoNode& t = this->topo_[std::size_t(node->id)];
    t.id = node->id;
    t.level = level;
    t.row_begin = node->begin;  // input ordering == tree ordering
    t.count = node->count;
    t.parent = parent;
    if (!node->is_leaf()) {
      t.left = node->left->id;
      t.right = node->right->id;
      flatten(node->left.get(), node->id, level + 1);
      flatten(node->right.get(), node->id, level + 1);
    }
  }

  std::vector<const HssNode*> nodes_;
};

template class RandHssView<float>;
template class RandHssView<double>;

}  // namespace gofmm

namespace gofmm::baseline {

namespace {

/// Vertically stacks two equal-width matrices.
template <typename T>
la::Matrix<T> vstack(const la::Matrix<T>& top, const la::Matrix<T>& bot) {
  la::Matrix<T> out(top.rows() + bot.rows(), top.cols());
  for (index_t j = 0; j < top.cols(); ++j) {
    std::copy_n(top.col(j), top.rows(), out.col(j));
    std::copy_n(bot.col(j), bot.rows(), out.col(j) + top.rows());
  }
  return out;
}

}  // namespace

template <typename T>
RandHss<T>::RandHss(const SPDMatrix<T>& k, const RandHssOptions& options)
    : n_(k.size()), options_(options) {
  const index_t p = options_.max_rank + options_.oversampling;

  // ---- Dense random sketch Y = K Ω: the O(N² p) stage. ----
  Timer timer;
  const la::Matrix<T> omega =
      la::Matrix<T>::random_normal(n_, p, options_.seed);
  la::Matrix<T> sample(n_, p);
  {
    std::vector<index_t> all(static_cast<std::size_t>(n_));
    std::iota(all.begin(), all.end(), index_t(0));
    const index_t block = 256;
    for (index_t r0 = 0; r0 < n_; r0 += block) {
      const index_t rb = std::min(block, n_ - r0);
      std::vector<index_t> rows(static_cast<std::size_t>(rb));
      std::iota(rows.begin(), rows.end(), r0);
      const la::Matrix<T> krows = k.submatrix(rows, all);
      la::Matrix<T> yblk(rb, p);
      la::gemm(la::Op::None, la::Op::None, T(1), krows, omega, T(0), yblk);
      for (index_t j = 0; j < p; ++j)
        std::copy_n(yblk.col(j), rb, sample.col(j) + r0);
    }
  }
  stats_.sketch_seconds = timer.seconds();

  timer.reset();
  root_ = std::make_unique<HssNode>();
  root_->begin = 0;
  root_->count = n_;
  build(root_.get(), k, omega, sample);
  stats_.build_seconds = timer.seconds();

  double sum = 0;
  index_t cnt = 0;
  std::vector<const HssNode*> stack{root_.get()};
  while (!stack.empty()) {
    const HssNode* node = stack.back();
    stack.pop_back();
    if (!node->skel.empty()) {
      sum += double(node->skel.size());
      stats_.max_rank =
          std::max<index_t>(stats_.max_rank, index_t(node->skel.size()));
      ++cnt;
    }
    if (!node->is_leaf()) {
      stack.push_back(node->left.get());
      stack.push_back(node->right.get());
    }
  }
  stats_.avg_rank = cnt > 0 ? sum / double(cnt) : 0;
}

template <typename T>
void RandHss<T>::build(HssNode* node, const SPDMatrix<T>& k,
                       const la::Matrix<T>& omega,
                       const la::Matrix<T>& sample) {
  // Recursive helper returning (Ŝ, Ω̂) per node, expressed iteratively via
  // a lambda so the temporaries never live on the HssNode.
  struct Products {
    la::Matrix<T> s_hat;
    la::Matrix<T> omega_hat;
  };
  const index_t p = omega.cols();

  std::function<Products(HssNode*)> rec = [&](HssNode* nd) -> Products {
    nd->id = num_nodes_++;
    const bool is_root = nd == root_.get();
    if (nd->count <= options_.leaf_size) {
      // ---- leaf ----
      std::vector<index_t> idx(static_cast<std::size_t>(nd->count));
      std::iota(idx.begin(), idx.end(), nd->begin);
      nd->diag = k.submatrix(idx, idx);
      if (is_root) return {};  // single-node tree: dense block only

      // Local off-diagonal sample S = Y(idx,:) − D Ω(idx,:).
      la::Matrix<T> s(nd->count, p);
      const la::Matrix<T> oloc = omega.block(nd->begin, 0, nd->count, p);
      for (index_t j = 0; j < p; ++j)
        std::copy_n(sample.col(j) + nd->begin, nd->count, s.col(j));
      la::gemm(la::Op::None, la::Op::None, T(-1), nd->diag, oloc, T(1), s);

      // Row ID of S: S ≈ U S(skel,:).
      const la::Interpolative<T> id = la::interp_decomp(
          s.transposed(), T(options_.tolerance), options_.max_rank);
      nd->u = id.p.transposed();  // count-by-rank
      nd->skel.resize(std::size_t(id.rank));
      std::vector<index_t> local(id.skel.begin(), id.skel.end());
      for (index_t t = 0; t < id.rank; ++t)
        nd->skel[std::size_t(t)] = nd->begin + local[std::size_t(t)];

      Products out;
      out.s_hat.resize(id.rank, p);
      for (index_t j = 0; j < p; ++j)
        for (index_t t = 0; t < id.rank; ++t)
          out.s_hat(t, j) = s(local[std::size_t(t)], j);
      out.omega_hat.resize(id.rank, p);
      la::gemm(la::Op::Trans, la::Op::None, T(1), nd->u, oloc, T(0),
               out.omega_hat);
      return out;
    }

    // ---- internal ----
    const index_t half = nd->count - nd->count / 2;
    nd->left = std::make_unique<HssNode>();
    nd->right = std::make_unique<HssNode>();
    nd->left->begin = nd->begin;
    nd->left->count = half;
    nd->right->begin = nd->begin + half;
    nd->right->count = nd->count - half;
    Products pl = rec(nd->left.get());
    Products pr = rec(nd->right.get());

    // Sibling coupling B = K(l̃, r̃).
    nd->b = k.submatrix(nd->left->skel, nd->right->skel);

    // Remove the sibling contribution from the children's samples:
    // S'_l = Ŝ_l − B Ω̂_r,  S'_r = Ŝ_r − Bᵀ Ω̂_l.
    la::gemm(la::Op::None, la::Op::None, T(-1), nd->b, pr.omega_hat, T(1),
             pl.s_hat);
    la::gemm(la::Op::Trans, la::Op::None, T(-1), nd->b, pl.omega_hat, T(1),
             pr.s_hat);
    if (is_root) return {};  // the top-level blocks are exactly B

    la::Matrix<T> s = vstack(pl.s_hat, pr.s_hat);
    std::vector<index_t> combined = nd->left->skel;
    combined.insert(combined.end(), nd->right->skel.begin(),
                    nd->right->skel.end());

    const la::Interpolative<T> id = la::interp_decomp(
        s.transposed(), T(options_.tolerance), options_.max_rank);
    nd->u = id.p.transposed();  // (r_l + r_r)-by-rank
    nd->skel.resize(std::size_t(id.rank));
    for (index_t t = 0; t < id.rank; ++t)
      nd->skel[std::size_t(t)] =
          combined[std::size_t(id.skel[std::size_t(t)])];

    Products out;
    out.s_hat.resize(id.rank, p);
    for (index_t j = 0; j < p; ++j)
      for (index_t t = 0; t < id.rank; ++t)
        out.s_hat(t, j) = s(id.skel[std::size_t(t)], j);
    la::Matrix<T> ostack = vstack(pl.omega_hat, pr.omega_hat);
    out.omega_hat.resize(id.rank, p);
    la::gemm(la::Op::Trans, la::Op::None, T(1), nd->u, ostack, T(0),
             out.omega_hat);
    return out;
  };

  rec(node);
}

template <typename T>
void RandHss<T>::upward(const HssNode* node, const la::Matrix<T>& w,
                        EvalWorkspace<T>& ws) const {
  const index_t r = w.cols();
  la::Matrix<T>& wtil = ws.up[std::size_t(node->id)];
  if (node->is_leaf()) {
    if (node->u.empty()) return;  // root-leaf
    const la::Matrix<T> wloc = w.block(node->begin, 0, node->count, r);
    wtil.resize(node->u.cols(), r);
    la::gemm(la::Op::Trans, la::Op::None, T(1), node->u, wloc, T(0), wtil);
    ws.flops.fetch_add(
        la::FlopCounter::gemm_flops(node->u.cols(), r, node->u.rows()),
        std::memory_order_relaxed);
    return;
  }
  upward(node->left.get(), w, ws);
  upward(node->right.get(), w, ws);
  if (node->u.empty()) return;  // root
  const la::Matrix<T> stacked = vstack(ws.up[std::size_t(node->left->id)],
                                       ws.up[std::size_t(node->right->id)]);
  wtil.resize(node->u.cols(), r);
  la::gemm(la::Op::Trans, la::Op::None, T(1), node->u, stacked, T(0), wtil);
  ws.flops.fetch_add(
      la::FlopCounter::gemm_flops(node->u.cols(), r, node->u.rows()),
      std::memory_order_relaxed);
}

template <typename T>
void RandHss<T>::downward(const HssNode* node, la::Matrix<T>& u,
                          EvalWorkspace<T>& ws) const {
  const index_t r = u.cols();
  const la::Matrix<T>& util = ws.down[std::size_t(node->id)];
  if (node->is_leaf()) {
    // u(idx,:) += U util + D w-part (the dense part is added by do_apply).
    if (!node->u.empty() && !util.empty()) {
      la::Matrix<T> t(node->count, r);
      la::gemm(la::Op::None, la::Op::None, T(1), node->u, util, T(0), t);
      for (index_t j = 0; j < r; ++j) {
        T* dst = u.col(j) + node->begin;
        const T* src = t.col(j);
        for (index_t i = 0; i < node->count; ++i) dst[i] += src[i];
      }
    }
    return;
  }
  const HssNode* l = node->left.get();
  const HssNode* rt = node->right.get();
  const index_t rl = index_t(l->skel.size());
  const index_t rr = index_t(rt->skel.size());
  la::Matrix<T>& util_l = ws.down[std::size_t(l->id)];
  la::Matrix<T>& util_r = ws.down[std::size_t(rt->id)];
  util_l.resize(rl, r);
  util_l.fill(T(0));
  util_r.resize(rr, r);
  util_r.fill(T(0));

  // Contribution through this node's own basis from the parent.
  if (!node->u.empty() && !util.empty()) {
    la::Matrix<T> t(node->u.rows(), r);
    la::gemm(la::Op::None, la::Op::None, T(1), node->u, util, T(0), t);
    for (index_t j = 0; j < r; ++j) {
      const T* src = t.col(j);
      T* dl = util_l.col(j);
      for (index_t i = 0; i < rl; ++i) dl[i] += src[i];
      T* dr = util_r.col(j);
      for (index_t i = 0; i < rr; ++i) dr[i] += src[rl + i];
    }
  }
  // Sibling coupling: util_l += B wtil_r, util_r += Bᵀ wtil_l.
  if (!node->b.empty()) {
    la::gemm(la::Op::None, la::Op::None, T(1), node->b,
             ws.up[std::size_t(rt->id)], T(1), util_l);
    la::gemm(la::Op::Trans, la::Op::None, T(1), node->b,
             ws.up[std::size_t(l->id)], T(1), util_r);
    ws.flops.fetch_add(
        2 * la::FlopCounter::gemm_flops(node->b.rows(), r, node->b.cols()),
        std::memory_order_relaxed);
  }
  downward(l, u, ws);
  downward(rt, u, ws);
}

template <typename T>
la::Matrix<T> RandHss<T>::do_apply(const la::Matrix<T>& w,
                                   EvalWorkspace<T>& ws) const {
  const index_t r = w.cols();
  const std::size_t nn = std::size_t(num_nodes_);
  if (ws.up.size() < nn) ws.up.resize(nn);
  if (ws.down.size() < nn) ws.down.resize(nn);
  for (auto& m : ws.up) m.resize(0, 0);
  for (auto& m : ws.down) m.resize(0, 0);
  la::Matrix<T> u(n_, r);
  upward(root_.get(), w, ws);
  downward(root_.get(), u, ws);

  // Dense diagonal blocks of the leaves.
  std::function<void(const HssNode*)> dense_part = [&](const HssNode* node) {
    if (node->is_leaf()) {
      const la::Matrix<T> wloc = w.block(node->begin, 0, node->count, r);
      la::Matrix<T> t(node->count, r);
      la::gemm(la::Op::None, la::Op::None, T(1), node->diag, wloc, T(0), t);
      ws.flops.fetch_add(
          la::FlopCounter::gemm_flops(node->count, r, node->count),
          std::memory_order_relaxed);
      for (index_t j = 0; j < r; ++j) {
        T* dst = u.col(j) + node->begin;
        const T* src = t.col(j);
        for (index_t i = 0; i < node->count; ++i) dst[i] += src[i];
      }
      return;
    }
    dense_part(node->left.get());
    dense_part(node->right.get());
  };
  dense_part(root_.get());
  return u;
}

template <typename T>
std::unique_ptr<const HssView<T>> RandHss<T>::hss_view() const {
  return std::make_unique<RandHssView<T>>(*this);
}

template <typename T>
std::uint64_t RandHss<T>::memory_bytes() const {
  std::uint64_t bytes = 0;
  std::vector<const HssNode*> stack{root_.get()};
  while (!stack.empty()) {
    const HssNode* node = stack.back();
    stack.pop_back();
    bytes += std::uint64_t(node->u.size() + node->diag.size() +
                           node->b.size()) *
             sizeof(T);
    bytes += std::uint64_t(node->skel.size()) * sizeof(index_t);
    if (!node->is_leaf()) {
      stack.push_back(node->left.get());
      stack.push_back(node->right.get());
    }
  }
  return bytes + this->factor_bytes();
}

template <typename T>
OperatorStats RandHss<T>::operator_stats() const {
  OperatorStats out;
  out.compress_seconds = stats_.sketch_seconds + stats_.build_seconds;
  out.avg_rank = stats_.avg_rank;
  out.max_rank = stats_.max_rank;
  out.memory_bytes = memory_bytes();
  return out;
}

template class RandHss<float>;
template class RandHss<double>;

}  // namespace gofmm::baseline
