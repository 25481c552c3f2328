// Compression pipeline orchestration (paper Algorithm 2.2).
#include "core/gofmm.hpp"

#include "util/timer.hpp"

namespace gofmm {

template <typename T>
CompressedMatrix<T>::CompressedMatrix(std::shared_ptr<const SPDMatrix<T>> k,
                                      const Config& config)
    : k_(std::move(k)), config_(config) {
  check<Error>(k_ != nullptr, "compress: null matrix");
  n_ = k_->size();
  check<Error>(n_ > 0, "compress: empty matrix");
  config_.validate();
  if (config_.distance == tree::DistanceKind::Geometric)
    check<ConfigError>(
        k_->points() != nullptr,
        "compress: geometric distance requires point coordinates");

  Timer total;
  metric_ = std::make_unique<tree::Metric<T>>(*k_, config_.distance);

  Timer phase;
  run_neighbor_search();
  stats_.ann_seconds = phase.seconds();

  phase.reset();
  build_partition_tree();
  stats_.tree_seconds = phase.seconds();

  phase.reset();
  build_interaction_lists();
  stats_.lists_seconds = phase.seconds();

  phase.reset();
  skeletonize_all();
  stats_.skel_seconds = phase.seconds();
  stats_.skel_flops = skel_flops_.load(std::memory_order_relaxed);

  phase.reset();
  if (config_.cache_blocks) cache_interaction_blocks();
  stats_.cache_seconds = phase.seconds();

  stats_.total_seconds = total.seconds();

  // Rank summary.
  double rank_sum = 0;
  index_t skel_nodes = 0;
  for (const auto& nd : data_) {
    if (nd.skel.empty()) continue;
    rank_sum += double(nd.skel.size());
    stats_.max_rank =
        std::max<index_t>(stats_.max_rank, index_t(nd.skel.size()));
    ++skel_nodes;
  }
  stats_.avg_rank = skel_nodes > 0 ? rank_sum / double(skel_nodes) : 0.0;
}

template <typename T>
CompressedMatrix<T> CompressedMatrix<T>::compress(
    std::shared_ptr<const SPDMatrix<T>> k, const Config& config) {
  // Returned as a prvalue: guaranteed copy elision constructs the result
  // in place (the class is neither movable nor copyable — it owns atomics
  // and mutexes).
  return CompressedMatrix(std::move(k), config);
}

template <typename T>
std::unique_ptr<CompressedMatrix<T>> CompressedMatrix<T>::compress_unique(
    std::shared_ptr<const SPDMatrix<T>> k, const Config& config) {
  return std::unique_ptr<CompressedMatrix>(
      new CompressedMatrix(std::move(k), config));
}

template <typename T>
void CompressedMatrix<T>::run_neighbor_search() {
  // Orderings without a distance (lexicographic/random) have no neighbor
  // notion: near lists degenerate to the diagonal (pure HSS) and sampling
  // falls back to uniform.
  if (!tree::has_distance(config_.distance)) return;
  tree::AnnOptions opts;
  opts.kappa = config_.kappa;
  opts.leaf_size = std::max<index_t>(config_.leaf_size, 2 * config_.kappa);
  opts.max_iterations = config_.ann_max_iterations;
  opts.target_recall = config_.ann_target_recall;
  opts.seed = config_.seed;
  tree::AnnResult res = tree::all_nearest_neighbors(*k_, *metric_, opts);
  neighbors_ = std::move(res.neighbors);
  stats_.ann_iterations = res.iterations;
  stats_.ann_recall = res.recall_per_iteration.empty()
                          ? 0.0
                          : res.recall_per_iteration.back();
}

template <typename T>
void CompressedMatrix<T>::build_partition_tree() {
  Prng rng(config_.seed + 1);
  tree_ = std::make_unique<tree::ClusterTree>(
      tree::build_tree(*k_, *metric_, config_.leaf_size, rng));
  num_leaves_ = index_t(tree_->leaves().size());
  data_.assign(std::size_t(tree_->num_nodes()), NodeData{});
}

template <typename T>
std::vector<index_t> CompressedMatrix<T>::skeleton_ranks() const {
  std::vector<index_t> ranks(data_.size(), 0);
  for (std::size_t i = 0; i < data_.size(); ++i)
    ranks[i] = index_t(data_[i].skel.size());
  return ranks;
}

template <typename T>
std::uint64_t CompressedMatrix<T>::memory_bytes() const {
  std::uint64_t bytes = stats_.cached_bytes;
  for (const auto& nd : data_) {
    bytes += std::uint64_t(nd.proj.size()) * sizeof(T);
    bytes += std::uint64_t(nd.skel.size()) * sizeof(index_t);
    bytes += std::uint64_t(nd.sample_rows.size()) * sizeof(index_t);
    bytes += std::uint64_t(nd.near.size() + nd.far.size()) * sizeof(void*);
    bytes += std::uint64_t(nd.near_leaf_ordinals.size()) * sizeof(index_t);
  }
  return bytes + this->factor_bytes();
}

template <typename T>
OperatorStats CompressedMatrix<T>::operator_stats() const {
  OperatorStats out;
  out.compress_seconds = stats_.total_seconds;
  out.avg_rank = stats_.avg_rank;
  out.max_rank = stats_.max_rank;
  out.memory_bytes = memory_bytes();
  return out;
}

template <typename T>
std::unique_ptr<EvalWorkspace<T>> CompressedMatrix<T>::acquire_workspace()
    const {
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    if (!pool_.empty()) {
      auto ws = std::move(pool_.back());
      pool_.pop_back();
      return ws;
    }
  }
  return std::make_unique<EvalWorkspace<T>>();
}

template <typename T>
void CompressedMatrix<T>::release_workspace(
    std::unique_ptr<EvalWorkspace<T>> ws) const {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  // Keep at most 16 idle workspaces: a burst of parallel matvecs beyond
  // that drops its extra workspaces instead of pinning their memory.
  if (pool_.size() < 16) pool_.push_back(std::move(ws));
}

template <typename T>
const la::Matrix<T>& CompressedMatrix<T>::near_block(
    const tree::Node* beta, std::size_t t, la::Matrix<T>& scratch) const {
  const NodeData& nd = data_[std::size_t(beta->id)];
  if (!nd.near_blocks.empty()) return nd.near_blocks[t];
  const tree::Node* alpha = nd.near[t];
  scratch = k_->submatrix(tree_->indices(beta), tree_->indices(alpha));
  return scratch;
}

template <typename T>
const la::Matrix<T>& CompressedMatrix<T>::far_block(
    const tree::Node* beta, std::size_t t, la::Matrix<T>& scratch) const {
  const NodeData& nd = data_[std::size_t(beta->id)];
  if (!nd.far_blocks.empty()) return nd.far_blocks[t];
  const tree::Node* alpha = nd.far[t];
  scratch = k_->submatrix(nd.skel, data_[std::size_t(alpha->id)].skel);
  return scratch;
}

template <typename T>
void CompressedMatrix<T>::cache_interaction_blocks() {
  // Kba(β) and SKba(β) of Algorithm 2.2: evaluate and store every direct
  // block K(β, α) and skeleton block K(β̃, α̃). Any order; parallel.
  const auto& nodes = tree_->nodes();
#pragma omp parallel for schedule(dynamic, 1)
  for (index_t t = 0; t < index_t(nodes.size()); ++t) {
    const tree::Node* beta = nodes[std::size_t(t)];
    NodeData& nd = data_[std::size_t(beta->id)];
    nd.near_blocks.clear();
    nd.near_blocks.reserve(nd.near.size());
    for (const tree::Node* alpha : nd.near)
      nd.near_blocks.push_back(
          k_->submatrix(tree_->indices(beta), tree_->indices(alpha)));
    nd.far_blocks.clear();
    nd.far_blocks.reserve(nd.far.size());
    for (const tree::Node* alpha : nd.far)
      nd.far_blocks.push_back(
          k_->submatrix(nd.skel, data_[std::size_t(alpha->id)].skel));
  }
  std::uint64_t bytes = 0;
  for (const auto& nd : data_) {
    for (const auto& b : nd.near_blocks)
      bytes += std::uint64_t(b.size()) * sizeof(T);
    for (const auto& b : nd.far_blocks)
      bytes += std::uint64_t(b.size()) * sizeof(T);
  }
  stats_.cached_bytes = bytes;
}

template class CompressedMatrix<float>;
template class CompressedMatrix<double>;

}  // namespace gofmm
