// Nested adaptive-rank skeletonization (paper §2.2 "Low-rank
// approximation", Algorithms 2.6; tasks SKEL and COEF of Table 2).
//
// Each node α is skeletonized by an interpolative decomposition of the
// sampled off-diagonal block K(I', cols(α)) where cols is the node's own
// index set for leaves and the union of the children's skeletons for
// interior nodes — this nesting gives the telescoping coefficient matrices
// of Eq. 10. Rows I' are drawn by neighbor-based importance sampling.
#include <algorithm>

#include "core/gofmm.hpp"
#include "la/flops.hpp"
#include "la/id.hpp"
#include "runtime/engines.hpp"
#include "util/timer.hpp"

namespace gofmm {

template <typename T>
std::vector<index_t> CompressedMatrix<T>::sample_rows_for(
    const tree::Node* node, std::span<const index_t> columns, index_t want,
    Prng& rng) const {
  const auto& inv = tree_->inv_perm();
  auto inside = [&](index_t j) {
    const index_t pos = inv[std::size_t(j)];
    return pos >= node->begin && pos < node->begin + node->count;
  };

  std::vector<index_t> rows;
  rows.reserve(std::size_t(want));

  // Importance sampling: neighbors of the node's columns that live outside
  // the subtree, ranked by vote count (how many columns list them), ties
  // by index. Votes are counted by sorting the flat candidate list.
  if (config_.neighbor_sampling && neighbors_.kappa > 0) {
    std::vector<index_t> cand;
    cand.reserve(columns.size() * std::size_t(neighbors_.kappa));
    for (index_t c : columns)
      for (index_t j : neighbors_.of(c))
        if (j >= 0 && !inside(j)) cand.push_back(j);
    std::sort(cand.begin(), cand.end());
    std::vector<std::pair<index_t, index_t>> ranked;  // (row, votes)
    for (std::size_t i = 0; i < cand.size();) {
      std::size_t e = i + 1;
      while (e < cand.size() && cand[e] == cand[i]) ++e;
      ranked.emplace_back(cand[i], index_t(e - i));
      i = e;
    }
    // Stable on the index-sorted runs: equal votes keep ascending index.
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
    for (const auto& [j, cnt] : ranked) {
      if (index_t(rows.size()) >= want) break;
      rows.push_back(j);
    }
  }

  // Uniform fill from outside the subtree (also the whole sample when
  // neighbor sampling is off or unavailable). `taken` mirrors `rows`,
  // kept sorted for the duplicate check.
  std::vector<index_t> taken(rows);
  std::sort(taken.begin(), taken.end());
  const index_t avail = n_ - node->count;
  const index_t target = std::min(want, avail);
  index_t guard = 0;
  while (index_t(rows.size()) < target && guard < 64 * target) {
    ++guard;
    const index_t j = rng.below(n_);
    if (inside(j)) continue;
    const auto at = std::lower_bound(taken.begin(), taken.end(), j);
    if (at != taken.end() && *at == j) continue;
    rows.push_back(j);
    taken.insert(at, j);
  }
  return rows;
}

template <typename T>
void CompressedMatrix<T>::skeletonize_node(const tree::Node* node) {
  NodeData& nd = data_[std::size_t(node->id)];
  if (!nd.needs_skeleton) return;

  // Columns: own indices (leaf) or the children's skeletons (nested).
  std::vector<index_t> cols;
  if (node->is_leaf()) {
    const auto idx = tree_->indices(node);
    cols.assign(idx.begin(), idx.end());
  } else {
    const auto& ls = data_[std::size_t(node->left()->id)].skel;
    const auto& rs = data_[std::size_t(node->right()->id)].skel;
    cols.reserve(ls.size() + rs.size());
    cols.insert(cols.end(), ls.begin(), ls.end());
    cols.insert(cols.end(), rs.begin(), rs.end());
  }
  if (cols.empty()) return;

  const index_t want = index_t(config_.sample_factor * double(cols.size())) +
                       config_.sample_extra;
  Prng rng(config_.seed + 77 + std::uint64_t(node->id));
  const std::vector<index_t> rows = sample_rows_for(node, cols, want, rng);
  if (rows.empty()) {
    // Root-like degenerate case: nothing outside the subtree to compress
    // against; keep everything (identity interpolation).
    nd.skel = cols;
    nd.proj = la::Matrix<T>::identity(index_t(cols.size()));
    return;
  }

  const la::Matrix<T> block = k_->submatrix(rows, cols);
  const la::Interpolative<T> id = la::interp_decomp(
      block, T(config_.tolerance), std::min(config_.max_rank,
                                            index_t(cols.size())));

  nd.skel.resize(std::size_t(id.rank));
  for (index_t t = 0; t < id.rank; ++t)
    nd.skel[std::size_t(t)] = cols[std::size_t(id.skel[std::size_t(t)])];
  nd.proj = id.p;

  skel_flops_.fetch_add(
      la::FlopCounter::qr_flops(index_t(rows.size()), index_t(cols.size()),
                                id.rank) +
          la::FlopCounter::trsm_flops(id.rank, index_t(cols.size())),
      std::memory_order_relaxed);
}

template <typename T>
void CompressedMatrix<T>::skeletonize_all() {
  switch (config_.engine) {
    case rt::Engine::LevelByLevel: {
      rt::level_bottom_up(tree_->levels(),
                          [this](const tree::Node* n) { skeletonize_node(n); });
      return;
    }
    case rt::Engine::OmpTask: {
      auto visit = [this](const tree::Node* n) { skeletonize_node(n); };
      rt::omp_postorder(tree_->root(), visit);
      return;
    }
    case rt::Engine::Heft: {
      // SKEL(α) after SKEL(l), SKEL(r): the postorder DAG. COEF (the TRSM)
      // is fused into skeletonize_node — it sits on the same critical path.
      rt::TaskGraph graph;
      std::vector<rt::Task*> task_of(std::size_t(tree_->num_nodes()), nullptr);
      for (const tree::Node* node : tree_->postorder()) {
        if (!data_[std::size_t(node->id)].needs_skeleton) continue;
        const double cols =
            node->is_leaf() ? double(node->count) : 2.0 * double(config_.max_rank);
        const double cost = 2.0 * double(config_.max_rank) * cols *
                            (config_.sample_factor * cols + 32.0);
        rt::Task* t = graph.emplace(
            [this, node](int) { skeletonize_node(node); }, cost,
            "SKEL#" + std::to_string(node->id));
        task_of[std::size_t(node->id)] = t;
        if (!node->is_leaf()) {
          if (auto* lt = task_of[std::size_t(node->left()->id)])
            graph.add_edge(lt, t);
          if (auto* rt_ = task_of[std::size_t(node->right()->id)])
            graph.add_edge(rt_, t);
        }
      }
      rt::Scheduler sched(config_.num_workers);
      sched.run(graph);
      return;
    }
  }
}

template std::vector<index_t> CompressedMatrix<float>::sample_rows_for(
    const tree::Node*, std::span<const index_t>, index_t, Prng&) const;
template std::vector<index_t> CompressedMatrix<double>::sample_rows_for(
    const tree::Node*, std::span<const index_t>, index_t, Prng&) const;
template void CompressedMatrix<float>::skeletonize_node(const tree::Node*);
template void CompressedMatrix<double>::skeletonize_node(const tree::Node*);
template void CompressedMatrix<float>::skeletonize_all();
template void CompressedMatrix<double>::skeletonize_all();

}  // namespace gofmm
