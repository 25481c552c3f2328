// Evaluation phase u = K̃ w (paper Algorithm 2.7 and Figure 3).
//
// Four task families over the tree:
//   N2S (postorder): skeleton weights   w̃_α = P_α̃α w_α, nested upward.
//   S2S (any order): skeleton potential ũ_β = Σ_{α∈Far(β)} K_β̃α̃ w̃_α.
//   S2N (preorder):  interpolate back   [ũ_l; ũ_r] += P^T ũ_β; at leaves
//                    u_β += P^T ũ_β.
//   L2L (any order): direct blocks      u_β += Σ_{α∈Near(β)} K_βα w_α.
// Three engines execute them: level-synchronous loops, recursive OpenMP
// tasks, or the HEFT DAG runtime with the dependency structure of Fig. 3.
//
// Each task runs on the one thread the engine gives it: its products go
// through la::gemm_panel, which stays serial for r ≤ 64 right-hand sides,
// so no OpenMP team is forked inside an engine worker. Tasks borrow the
// cached K blocks by reference and read ws.x / ws.up in place; only the
// per-task accumulators (and, with cache_blocks off, the evaluated
// blocks) are allocated.
//
// Everything here is const on the compressed matrix: the per-call state
// (tree-ordered rhs/outputs in ws.x/ws.y, per-node skeleton weights and
// potentials in ws.up/ws.down, the flop counter) lives in the caller's
// EvalWorkspace, so concurrent evaluations never touch shared storage.
#include "core/gofmm.hpp"

#include "la/blas.hpp"
#include "la/flops.hpp"
#include "runtime/engines.hpp"
#include "util/timer.hpp"

namespace gofmm {

namespace {

// C += A B, where A is C.rows()-by-k with leading dimension lda and B is
// k-by-C.cols() with leading dimension ldb, both read in place. gemm_panel
// updates C at every k, so splitting a product over k (internal N2S) or
// accumulating it block by block (S2S, L2L) does not change its bits.
template <typename T>
void add_product(const T* a, index_t lda, index_t k, const T* b, index_t ldb,
                 la::Matrix<T>& c, EvalWorkspace<T>& ws) {
  la::gemm_panel(c.rows(), c.cols(), k, T(1), a, lda, b, ldb, c.data(),
                 c.rows());
  ws.flops.fetch_add(la::FlopCounter::gemm_flops(c.rows(), c.cols(), k),
                     std::memory_order_relaxed);
}

}  // namespace

template <typename T>
void CompressedMatrix<T>::eval_prepare(const la::Matrix<T>& w,
                                       EvalWorkspace<T>& ws) const {
  const index_t r = w.cols();
  // Permute the right-hand sides into tree order once; every task then
  // reads/writes contiguous row blocks.
  ws.x.resize(n_, r);
  const auto& perm = tree_->perm();
  for (index_t j = 0; j < r; ++j) {
    const T* src = w.col(j);
    T* dst = ws.x.col(j);
    for (index_t pos = 0; pos < n_; ++pos)
      dst[pos] = src[perm[std::size_t(pos)]];
  }
  ws.y.resize(n_, r);

  const std::size_t nn = std::size_t(tree_->num_nodes());
  if (ws.up.size() < nn) ws.up.resize(nn);
  if (ws.down.size() < nn) ws.down.resize(nn);
  for (const tree::Node* node : tree_->nodes()) {
    const NodeData& nd = data_[std::size_t(node->id)];
    const index_t s = index_t(nd.skel.size());
    ws.up[std::size_t(node->id)].resize(s, s > 0 ? r : 0);
    ws.down[std::size_t(node->id)].resize(s, s > 0 ? r : 0);
  }
}

template <typename T>
void CompressedMatrix<T>::task_n2s(const tree::Node* node,
                                   EvalWorkspace<T>& ws) const {
  const NodeData& nd = data_[std::size_t(node->id)];
  if (nd.skel.empty()) return;
  const la::Matrix<T>& p = nd.proj;
  la::Matrix<T>& w_skel = ws.up[std::size_t(node->id)];
  w_skel.fill(T(0));
  if (node->is_leaf()) {
    // w̃ = P_α̃α w_α, reading the leaf's rows of ws.x in place.
    add_product(p.data(), p.rows(), p.cols(), ws.x.col(0) + node->begin,
                ws.x.rows(), w_skel, ws);
  } else {
    // w̃ = P_α̃[l̃r̃] [w̃_l; w̃_r], one column half of P per child.
    const la::Matrix<T>& wl = ws.up[std::size_t(node->left()->id)];
    const la::Matrix<T>& wr = ws.up[std::size_t(node->right()->id)];
    add_product(p.data(), p.rows(), wl.rows(), wl.data(), wl.rows(), w_skel,
                ws);
    add_product(p.col(wl.rows()), p.rows(), wr.rows(), wr.data(), wr.rows(),
                w_skel, ws);
  }
}

template <typename T>
void CompressedMatrix<T>::task_s2s(const tree::Node* node,
                                   EvalWorkspace<T>& ws) const {
  const NodeData& nd = data_[std::size_t(node->id)];
  if (nd.skel.empty()) return;
  la::Matrix<T>& u_skel = ws.down[std::size_t(node->id)];
  u_skel.fill(T(0));
  la::Matrix<T> scratch;
  for (std::size_t t = 0; t < nd.far.size(); ++t) {
    const la::Matrix<T>& w_alpha = ws.up[std::size_t(nd.far[t]->id)];
    const la::Matrix<T>& kba = far_block(node, t, scratch);
    add_product(kba.data(), kba.rows(), kba.cols(), w_alpha.data(),
                w_alpha.rows(), u_skel, ws);
  }
}

template <typename T>
void CompressedMatrix<T>::task_s2n(const tree::Node* node,
                                   EvalWorkspace<T>& ws) const {
  const NodeData& nd = data_[std::size_t(node->id)];
  if (nd.skel.empty()) return;
  const index_t r = ws.x.cols();
  const la::Matrix<T>& u_skel = ws.down[std::size_t(node->id)];
  // tmp = P^T ũ_β.
  const la::Matrix<T> pt = nd.proj.transposed();
  la::Matrix<T> tmp(pt.rows(), r);
  add_product(pt.data(), pt.rows(), pt.cols(), u_skel.data(), u_skel.rows(),
              tmp, ws);
  if (node->is_leaf()) {
    // Accumulate into the leaf's output rows.
    for (index_t j = 0; j < r; ++j) {
      T* dst = ws.y.col(j) + node->begin;
      const T* src = tmp.col(j);
      for (index_t i = 0; i < node->count; ++i) dst[i] += src[i];
    }
  } else {
    // Split into the children's skeleton potentials.
    la::Matrix<T>& ul = ws.down[std::size_t(node->left()->id)];
    la::Matrix<T>& ur = ws.down[std::size_t(node->right()->id)];
    for (index_t j = 0; j < r; ++j) {
      const T* src = tmp.col(j);
      T* dl = ul.col(j);
      for (index_t i = 0; i < ul.rows(); ++i) dl[i] += src[i];
      T* dr = ur.col(j);
      for (index_t i = 0; i < ur.rows(); ++i) dr[i] += src[ul.rows() + i];
    }
  }
}

template <typename T>
void CompressedMatrix<T>::task_l2l(const tree::Node* node,
                                   EvalWorkspace<T>& ws) const {
  const NodeData& nd = data_[std::size_t(node->id)];
  const index_t r = ws.x.cols();
  la::Matrix<T> acc(node->count, r);
  la::Matrix<T> scratch;
  for (std::size_t t = 0; t < nd.near.size(); ++t) {
    const tree::Node* alpha = nd.near[t];
    const la::Matrix<T>& kba = near_block(node, t, scratch);
    add_product(kba.data(), kba.rows(), kba.cols(),
                ws.x.col(0) + alpha->begin, ws.x.rows(), acc, ws);
  }
  for (index_t j = 0; j < r; ++j) {
    T* dst = ws.y.col(j) + node->begin;
    const T* src = acc.col(j);
    for (index_t i = 0; i < node->count; ++i) dst[i] += src[i];
  }
}

template <typename T>
void CompressedMatrix<T>::eval_with_levels(EvalWorkspace<T>& ws) const {
  // Level-synchronous engine: barriers between phases and between levels.
  rt::level_bottom_up(tree_->levels(),
                      [&](const tree::Node* n) { task_n2s(n, ws); });
  rt::any_order(tree_->nodes(), [&](const tree::Node* n) { task_s2s(n, ws); });
  rt::level_top_down(tree_->levels(),
                     [&](const tree::Node* n) { task_s2n(n, ws); });
  rt::any_order(tree_->leaves(),
                [&](const tree::Node* n) { task_l2l(n, ws); });
}

template <typename T>
void CompressedMatrix<T>::eval_with_omp_tasks(EvalWorkspace<T>& ws) const {
  // The paper's `omp task` scheme: recursive task traversals with
  // taskwait barriers; cross-phase dependencies (N2S→S2S) cannot be
  // expressed, so a barrier separates the phases.
  auto n2s = [&](const tree::Node* n) { task_n2s(n, ws); };
  rt::omp_postorder(tree_->root(), n2s);
  rt::any_order(tree_->nodes(), [&](const tree::Node* n) { task_s2s(n, ws); });
  auto s2n = [&](const tree::Node* n) { task_s2n(n, ws); };
  rt::omp_preorder(tree_->root(), s2n);
  rt::any_order(tree_->leaves(),
                [&](const tree::Node* n) { task_l2l(n, ws); });
}

template <typename T>
void CompressedMatrix<T>::eval_with_heft(EvalWorkspace<T>& ws) const {
  // Out-of-order engine: the full dependency DAG of Figure 3. RAW edges:
  //   N2S(α) ← N2S(l), N2S(r)                  (nested weights)
  //   S2S(β) ← N2S(α) for every α ∈ Far(β)     (reads w̃_α)
  //   S2N(β) ← S2S(β)                          (reads ũ_β)
  //   S2N(β) ← S2N(parent β)                   (parent adds into ũ_β)
  //   S2N(parent β) ← S2S(β)                   (orders the two writers)
  //   S2N(leaf β) ← L2L(β)                     (both write u rows of β)
  const index_t r = ws.x.cols();
  rt::TaskGraph graph;
  const std::size_t nn = std::size_t(tree_->num_nodes());
  std::vector<rt::Task*> n2s_of(nn, nullptr);
  std::vector<rt::Task*> s2s_of(nn, nullptr);
  std::vector<rt::Task*> s2n_of(nn, nullptr);
  std::vector<rt::Task*> l2l_of(nn, nullptr);

  for (const tree::Node* node : tree_->postorder()) {
    const NodeData& nd = data_[std::size_t(node->id)];
    if (nd.skel.empty()) continue;
    const double s = double(nd.skel.size());
    rt::Task* t = graph.emplace([this, node, &ws](int) { task_n2s(node, ws); },
                                2.0 * s * double(nd.proj.cols()) * double(r),
                                "N2S#" + std::to_string(node->id));
    n2s_of[std::size_t(node->id)] = t;
    if (!node->is_leaf()) {
      if (auto* c = n2s_of[std::size_t(node->left()->id)])
        graph.add_edge(c, t);
      if (auto* c = n2s_of[std::size_t(node->right()->id)])
        graph.add_edge(c, t);
    }
  }

  for (const tree::Node* node : tree_->nodes()) {
    const NodeData& nd = data_[std::size_t(node->id)];
    if (nd.skel.empty()) continue;
    double cost = 0;
    for (const tree::Node* alpha : nd.far)
      cost += 2.0 * double(nd.skel.size()) *
              double(data_[std::size_t(alpha->id)].skel.size()) * double(r);
    rt::Task* t = graph.emplace([this, node, &ws](int) { task_s2s(node, ws); },
                                std::max(1.0, cost),
                                "S2S#" + std::to_string(node->id));
    s2s_of[std::size_t(node->id)] = t;
    for (const tree::Node* alpha : nd.far)
      if (auto* dep = n2s_of[std::size_t(alpha->id)]) graph.add_edge(dep, t);
  }

  for (const tree::Node* node : tree_->leaves()) {
    const NodeData& nd = data_[std::size_t(node->id)];
    double cost = 0;
    for (const tree::Node* alpha : nd.near)
      cost += 2.0 * double(node->count) * double(alpha->count) * double(r);
    l2l_of[std::size_t(node->id)] =
        graph.emplace([this, node, &ws](int) { task_l2l(node, ws); },
                      std::max(1.0, cost), "L2L#" + std::to_string(node->id));
  }

  // Preorder so the parent's S2N task exists before the children's.
  for (const tree::Node* node : tree_->nodes()) {
    const NodeData& nd = data_[std::size_t(node->id)];
    if (nd.skel.empty()) continue;
    rt::Task* t = graph.emplace(
        [this, node, &ws](int) { task_s2n(node, ws); },
        2.0 * double(nd.skel.size()) * double(nd.proj.cols()) * double(r),
        "S2N#" + std::to_string(node->id));
    s2n_of[std::size_t(node->id)] = t;
    if (auto* own_s2s = s2s_of[std::size_t(node->id)])
      graph.add_edge(own_s2s, t);
    if (node->parent != nullptr) {
      if (auto* p = s2n_of[std::size_t(node->parent->id)]) {
        graph.add_edge(p, t);
        // The parent S2N writes ũ of this node; order it after our S2S.
        if (auto* own_s2s = s2s_of[std::size_t(node->id)])
          graph.add_edge(own_s2s, p);
      }
    }
    if (node->is_leaf()) {
      if (auto* l = l2l_of[std::size_t(node->id)]) graph.add_edge(l, t);
    }
  }

  rt::Scheduler sched(config_.num_workers);
  sched.run(graph);
}

template <typename T>
la::Matrix<T> CompressedMatrix<T>::do_apply(const la::Matrix<T>& w,
                                            EvalWorkspace<T>& ws) const {
  eval_prepare(w, ws);

  switch (config_.engine) {
    case rt::Engine::LevelByLevel:
      eval_with_levels(ws);
      break;
    case rt::Engine::OmpTask:
      eval_with_omp_tasks(ws);
      break;
    case rt::Engine::Heft:
      eval_with_heft(ws);
      break;
  }

  // Un-permute the accumulated result.
  la::Matrix<T> u(n_, w.cols());
  const auto& perm = tree_->perm();
  for (index_t j = 0; j < w.cols(); ++j) {
    const T* src = ws.y.col(j);
    T* dst = u.col(j);
    for (index_t pos = 0; pos < n_; ++pos)
      dst[perm[std::size_t(pos)]] = src[pos];
  }
  return u;
}

template <typename T>
la::Matrix<T> CompressedMatrix<T>::evaluate(const la::Matrix<T>& w) const {
  std::unique_ptr<EvalWorkspace<T>> ws = acquire_workspace();
  la::Matrix<T> u = this->apply(w, *ws);
  {
    std::lock_guard<std::mutex> lock(eval_stats_mutex_);
    eval_stats_ = ws->last;
  }
  release_workspace(std::move(ws));
  return u;
}

template void CompressedMatrix<float>::eval_prepare(
    const la::Matrix<float>&, EvalWorkspace<float>&) const;
template void CompressedMatrix<double>::eval_prepare(
    const la::Matrix<double>&, EvalWorkspace<double>&) const;
template void CompressedMatrix<float>::task_n2s(const tree::Node*,
                                                EvalWorkspace<float>&) const;
template void CompressedMatrix<double>::task_n2s(const tree::Node*,
                                                 EvalWorkspace<double>&) const;
template void CompressedMatrix<float>::task_s2s(const tree::Node*,
                                                EvalWorkspace<float>&) const;
template void CompressedMatrix<double>::task_s2s(const tree::Node*,
                                                 EvalWorkspace<double>&) const;
template void CompressedMatrix<float>::task_s2n(const tree::Node*,
                                                EvalWorkspace<float>&) const;
template void CompressedMatrix<double>::task_s2n(const tree::Node*,
                                                 EvalWorkspace<double>&) const;
template void CompressedMatrix<float>::task_l2l(const tree::Node*,
                                                EvalWorkspace<float>&) const;
template void CompressedMatrix<double>::task_l2l(const tree::Node*,
                                                 EvalWorkspace<double>&) const;
template void CompressedMatrix<float>::eval_with_levels(
    EvalWorkspace<float>&) const;
template void CompressedMatrix<double>::eval_with_levels(
    EvalWorkspace<double>&) const;
template void CompressedMatrix<float>::eval_with_omp_tasks(
    EvalWorkspace<float>&) const;
template void CompressedMatrix<double>::eval_with_omp_tasks(
    EvalWorkspace<double>&) const;
template void CompressedMatrix<float>::eval_with_heft(
    EvalWorkspace<float>&) const;
template void CompressedMatrix<double>::eval_with_heft(
    EvalWorkspace<double>&) const;
template la::Matrix<float> CompressedMatrix<float>::do_apply(
    const la::Matrix<float>&, EvalWorkspace<float>&) const;
template la::Matrix<double> CompressedMatrix<double>::do_apply(
    const la::Matrix<double>&, EvalWorkspace<double>&) const;
template la::Matrix<float> CompressedMatrix<float>::evaluate(
    const la::Matrix<float>&) const;
template la::Matrix<double> CompressedMatrix<double>::evaluate(
    const la::Matrix<double>&) const;

}  // namespace gofmm
