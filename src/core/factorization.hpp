// Hierarchical factorization & solve subsystem.
//
// UlvFactorization factors a hierarchically semi-separable operator
// described by an HssView (core/hss_view.hpp): exact leaf diagonal blocks
// K(β, β) + λI plus, at every interior node, the low-rank coupling between
// its two children,
//
//   K̃_p = blkdiag(K̃_l, K̃_r) + W M Wᵀ,
//   W = blkdiag(V_l, V_r),  M = [[0, B], [Bᵀ, 0]].
//
// The view's basis kind fixes which of two elimination structures runs
// (HssView::basis_kind); there is no option to override it:
//
// ORTHOGONAL (Nested views — GOFMM, randomized HSS). Per node the engine
// computes ONCE, at construction, the Householder QR of the node's
// parent-facing basis, V = Q [R; 0] (la/qr.hpp), and stores Q in geqrt form
// (la::QrFactors: reflectors plus the per-panel compact-WY T factors), so
// every application during eliminate/solve sweeps is pure GEMMs with zero
// larft rebuilds. Rotating a node's block by its Q zeroes the off-diagonal
// coupling below the leading r rows, so the trailing rows close over
// themselves and are eliminated by a dense factorization of the rotated
// trailing block Ĝ; the kept r rows carry a Schur complement and the reduced
// basis R up to the parent, where the children's R factors stack into the
// next basis ([R_l E_top; R_r E_bot]) and the reduced coupling
// B̃ = R_l B R_rᵀ — both λ-independent. Because Qᵀ(A + λI)Q = QᵀAQ + λI,
// EVERYTHING except the small dense block factorizations is λ-independent:
// rotations, rotated leaf blocks QᵀK(β,β)Q, reduced couplings, and the
// elimination order are all computed once, and refactorize(λ') re-factors
// only the rotated diagonal blocks — no view walk, no oracle reads, no
// basis or Gram work (the compress-and-eliminate structure of Sushnikova–
// Oseledets / STRUMPACK, in the spirit of Schäfer–Sullivan–Owhadi).
// A further payoff: orthogonal similarity preserves inertia and the Schur
// chain adds it (Haynsworth), so the block inertias sum to the EXACT
// inertia of the factored operator — positive_definite is a certificate,
// not a heuristic, and signed log-determinants read off the blocks.
//
// WOODBURY (Explicit views — HODLR). The classic path: leaves factor
// K(β, β) + λI directly, every interior node folds the sibling coupling in
// with a Woodbury capacitance system over the per-node solve operators
// Φ_β = (K̃_β + λI)⁻¹ V_β and Grams S_β = V_βᵀ Φ_β. Explicit bases do not
// telescope, so each Φ comes from a subtree solve — the classical
// O(N log² N) HODLR direct factorization. Φ and S depend on λ, so a
// Woodbury retune re-eliminates most of the factorization (still with
// zero oracle traffic, against the construction-time payload snapshot).
//
// For a pure HSS compression (budget 0), randomized HSS, or HODLR, the
// factored operator IS the compressed operator, so solve() inverts apply()
// to round-off. With a direct budget > 0 the near/far corrections outside
// the nested part are dropped and solve() is a preconditioner-quality
// approximate inverse.
//
// solve() runs level-synchronous sweeps: nodes of one level touch disjoint
// tree-ordered row ranges, so each level runs under an OpenMP parallel-for
// with a barrier between levels (the orthogonal structure sweeps up —
// rotate, eliminate — then down — back-substitute, rotate back; Woodbury
// is the single bottom-up downdate sweep). Each node performs a fixed GEMM
// sequence on its own rows regardless of thread count or schedule, so the
// parallel sweep is bit-identical to the sequential recursion
// (SweepMode::Sequential keeps the recursion for verification).
// Right-hand sides are blocked: solve(N-by-r) performs ONE sweep whose
// GEMMs are r columns wide instead of r sequential sweeps.
//
// Thread safety: construction and refactorize() mutate only this object
// (the view is read during construction, then dropped — the factorization
// owns a topology-and-payload snapshot and outlives both the view and, for
// solves, the backend). solve()/logdet() are const, allocate all scratch
// locally, and are bit-deterministic — concurrent solves on one
// factorization are safe; refactorize() must not race them.
#pragma once

#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/gofmm.hpp"
#include "core/hss_view.hpp"
#include "core/operator.hpp"
#include "la/matrix.hpp"
#include "la/qr.hpp"

namespace gofmm {

/// Traversal used by UlvFactorization::solve (results are bit-identical).
enum class SweepMode {
  LevelParallel,  ///< level-synchronous OpenMP sweep (default)
  Sequential,     ///< sequential postorder recursion (verification path)
};

/// ULV factors of one HssView'd hierarchical operator (+ λI).
template <typename T>
class UlvFactorization {
 public:
  /// Factors the operator described by `view` plus `regularization`·I. The
  /// view is only read during construction (every λ-independent quantity —
  /// rotations, rotated leaf blocks, reduced couplings, or the Woodbury
  /// path's payload snapshot — is built here and never refetched). λ may
  /// be any finite value — negative shifts eliminate through the pivoted-
  /// LDLᵀ block path unless `options.elimination` forces Cholesky. Throws
  /// StateError when a block refuses to eliminate (Cholesky mode and not
  /// positive definite, or exactly singular under LDLᵀ) — adjust λ in
  /// those cases. The view's basis_kind() selects the elimination
  /// structure: orthogonal for Nested bases, Woodbury for Explicit ones.
  UlvFactorization(const HssView<T>& view, T regularization,
                   FactorizeOptions options = {});

  /// Re-eliminates with a new λ. The orthogonal structure re-factors ONLY
  /// the small rotated diagonal blocks (λI commutes through the stored
  /// rotations); Woodbury re-runs the elimination over the payload
  /// snapshot. Either way there is zero view or oracle traffic and the
  /// result is bit-identical to constructing a fresh factorization of the
  /// same view at the new λ. On throw (same conditions as the constructor)
  /// the factors are inconsistent and the factorization must be discarded.
  void refactorize(T regularization);

  /// x = (K̃ + λI)⁻¹ b for N-by-r right-hand sides — one blocked sweep with
  /// r-wide GEMMs. Const, thread-safe, bit-deterministic; both sweep modes
  /// produce bit-identical results.
  [[nodiscard]] la::Matrix<T> solve(
      const la::Matrix<T>& b, SweepMode sweep = SweepMode::LevelParallel) const;

  /// log det(K̃ + λI); throws StateError if the factored operator is not
  /// positive definite (use log_abs_det()/det_sign() for indefinite
  /// operators).
  [[nodiscard]] double logdet() const;

  /// log |det(K̃ + λI)| — defined for indefinite operators too, from the
  /// eliminated-block inertias (orthogonal structure) or the leaf LDLᵀ
  /// inertia plus capacitance LU diagonals (Woodbury).
  [[nodiscard]] double log_abs_det() const { return logdet_; }

  /// Sign of det(K̃ + λI) (+1 or -1) as tracked through the elimination.
  [[nodiscard]] int det_sign() const { return det_sign_; }

  /// Max over stored rotations of ‖QᵀQ − I‖_F, measured by applying each
  /// node's reflectors to the identity. Diagnostic for the orthogonality
  /// contract the λ-retune rests on (≤ dim·ε for Householder Q); returns 0
  /// under Woodbury (no rotations are stored).
  [[nodiscard]] double rotation_orthogonality_error() const;

  /// Work counters of the latest factorize()/refactorize().
  [[nodiscard]] const FactorizationStats& stats() const { return stats_; }

 private:
  /// Per-node factors of the WOODBURY elimination, indexed by
  /// HssTopoNode::id. Immutable between eliminations.
  struct FNode {
    /// Leaf factorization of K(β,β) + λI: lower Cholesky, or Bunch–Kaufman
    /// LDLᵀ when leaf_pivots is nonempty.
    la::Matrix<T> leaf_fac;
    std::vector<index_t> leaf_pivots;  ///< empty means Cholesky
    la::Matrix<T> v;         ///< |β|-by-r parent-facing basis (tree-ordered)
    la::Matrix<T> phi;       ///< |β|-by-r solve operator (K̃_β+λI)⁻¹ V_β
    la::Matrix<T> s;         ///< r-by-r Gram V_βᵀ (K̃_β+λI)⁻¹ V_β
    la::Matrix<T> coupling;  ///< B, r_l-by-r_r (empty when identity_coupling)
    la::Matrix<T> cap;       ///< LU of C = I + blkdiag(S_l,S_r)·M
    std::vector<index_t> cap_pivots;
    /// View returned an empty coupling(): B = I by convention, and every
    /// GEMM against B is skipped (see HssView::coupling).
    bool identity_coupling = false;
    [[nodiscard]] bool has_coupling() const { return cap.rows() > 0; }
  };

  /// Per-node factors of the ORTHOGONAL elimination. Everything above the
  /// marker is λ-independent (built once at construction); the fields
  /// below it are refilled by every eliminate — they are the ONLY
  /// λ-dependent state.
  struct ONode {
    /// Stacked-basis QR in geqrt form: reflectors + tau + the cached
    /// per-panel compact-WY V/T blocks, so sweep applications never
    /// rebuild T (dim×kept reflectors).
    la::QrFactors<T> qf;
    la::Matrix<T> rk;    ///< kept (reduced) basis R, kept×kept upper
    /// Cached rotated λ-independent block Qᵀ A₀ Q: always present at
    /// leaves (A₀ = K(β,β)); present at an interior node when every
    /// contributing child is `shifted` — then the whole subtree's
    /// λ-dependence is the single +λI that commutes through Q, and the
    /// retune skips this node's assembly AND rotation.
    la::Matrix<T> a0;
    la::Matrix<T> bt;      ///< interior: reduced coupling B̃ = R_l B R_rᵀ
    /// Row blocks of the dense Q (k_l-by-dim / k_r-by-dim), materialised
    /// only where a per-λ rotation is unavoidable (interior, kept > 0, a0
    /// not cacheable). The λ-dependent part of the reduced system is block
    /// diagonal, so Qᵀ A Q = Q_tᵀ S_l Q_t + Q_bᵀ S_r Q_b + base0 — large
    /// GEMMs over HALF of A instead of reflector sweeps over all of it.
    la::Matrix<T> qtop;
    la::Matrix<T> qbot;
    /// Cached rotated λ-independent part of the reduced system: the
    /// coupling [[0, B̃], [B̃ᵀ, 0]] plus, for every low-rank child (see
    /// lowrank_l/r), that child's E₀ diagonal block.
    la::Matrix<T> base0;
    /// Per-λ rotation shortcut for a child whose OWN rotated block is
    /// cached: its Schur is S(λ) = E₀ + λI − F̂₀ w(λ) with F̂₀ fixed and
    /// rank elim < kept, so Q_iᵀ S Q_i = [base0 part] + λ·(Q_iᵀQ_i) −
    /// (Q_iᵀF̂₀)(w(λ) Q_i) — a cached Gram plus a thin downdate using the
    /// w the child computes per λ anyway. Chosen at build (structurally,
    /// so retunes stay bit-identical) exactly when it saves flops.
    bool lowrank_l = false;
    bool lowrank_r = false;
    la::Matrix<T> qq_l;  ///< Q_tᵀ Q_t (dim×dim), cached when lowrank_l
    la::Matrix<T> qq_r;  ///< Q_bᵀ Q_b (dim×dim), cached when lowrank_r
    la::Matrix<T> u_l;   ///< Q_tᵀ F̂₀_l (dim×elim_l), cached when lowrank_l
    la::Matrix<T> u_r;   ///< Q_bᵀ F̂₀_r (dim×elim_r), cached when lowrank_r
    /// Some parent reads this node's dense Schur per λ (split rotation or
    /// unrotated assembly); false lets the retune skip computing it.
    bool schur_needed = false;
    index_t dim = 0;     ///< node system size (leaf: |β|; interior: k_l+k_r)
    index_t kept = 0;    ///< rows passed to the parent (0 = eliminate all)
    bool coupled = false;    ///< B̃ present (else block-diagonal assembly)
    bool a0_cached = false;  ///< a0 holds the full rotated block
    /// Node eliminates nothing (kept == dim) and a0 is cached: its Schur
    /// complement is EXACTLY a0 + λI, so no per-λ work happens here at
    /// all — the λ-linear frontier the cheap retune rests on.
    bool shifted = false;
    // λ-dependent factors, refilled by every eliminate(λ):
    la::Matrix<T> gfac;         ///< factor of the trailing block Ĝ
    std::vector<index_t> gpiv;  ///< LDLᵀ pivots of gfac (empty = Cholesky)
    la::Matrix<T> fhat;         ///< F̂ = Â(0:kept, kept:dim)
    la::Matrix<T> w;            ///< Ĝ⁻¹ F̂ᵀ (solve downdates become GEMMs)
    la::Matrix<T> schur;        ///< S = Ê − F̂ w, the parent's diagonal block
  };

  /// Per-node scratch tally of one parallel elimination sweep: the nodes
  /// of a level eliminate concurrently into their own tally, then the
  /// tallies fold into logdet/inertia/stats in FIXED postorder — the
  /// reduction is bit-identical for any thread count or schedule.
  struct OrthoTally {
    double logdet = 0;           ///< log|det| of this node's factored block
    int sign = 1;                ///< sign of that determinant
    index_t negative = 0;        ///< negative eigenvalues of the block
    bool ldlt = false;           ///< block eliminated via pivoted LDLᵀ
    std::uint64_t flops = 0;     ///< work of this node's elimination
  };

  // --- shared structure -----------------------------------------------
  void snapshot_topology(const HssView<T>& view);
  /// Factors one symmetric block in place per options_.elimination,
  /// accumulating logdet/inertia into `tally`; returns via `pivots`
  /// (empty = Cholesky).
  void factor_block(la::Matrix<T>& block, std::vector<index_t>& pivots,
                    OrthoTally& tally) const;
  /// Solves block_factor · x = b in place (Cholesky or LDLᵀ).
  static void block_solve(const la::Matrix<T>& fac,
                          const std::vector<index_t>& pivots,
                          la::Matrix<T>& b);
  void reset_lambda_stats(T regularization);
  void finish_stats();

  // --- orthogonal elimination ------------------------------------------
  /// One-time structure build: rotations (geqrf), rotated leaf blocks,
  /// reduced couplings, kept ranks, and the solve slot lists.
  void build_orthogonal(const HssView<T>& view);
  /// λ-dependent part: factor rotated trailing blocks bottom-up, one
  /// OpenMP parallel-for per level (nodes of a level are independent).
  void eliminate_orthogonal(T regularization);
  void ortho_eliminate_node(index_t id, T regularization, OrthoTally& tally);
  /// Upward solve step of one node: gather, rotate by Qᵀ, eliminate the
  /// trailing rows, park their partial solution.
  void ortho_up_node(index_t id, la::Matrix<T>& x) const;
  /// Downward step: recover the trailing rows, rotate back by Q, scatter.
  void ortho_down_node(index_t id, la::Matrix<T>& x) const;
  void ortho_solve_recursive_up(index_t id, la::Matrix<T>& x) const;
  void ortho_solve_recursive_down(index_t id, la::Matrix<T>& x) const;

  // --- Woodbury elimination --------------------------------------------
  /// One full bottom-up elimination at shift `regularization`. During
  /// construction view_ is non-null and payloads are fetched-and-cached;
  /// refactorize() runs the very same code against the cache (bit-identical
  /// by construction). Resets and refills every λ-dependent factor/stat.
  void eliminate_woodbury(T regularization);
  void factor_leaf(index_t id, T regularization);
  void factor_internal(index_t id);
  /// Explicit-basis path: Φ_β = (K̃_β + λI)⁻¹ V_β by a subtree solve, run
  /// after β's own capacitance is factored.
  void attach_explicit_basis(index_t id);
  /// Leaf block solve through whichever factorization the leaf holds.
  void leaf_solve(const FNode& f, la::Matrix<T>& b) const;
  /// One node of the elimination sweep applied to the tree-ordered x:
  /// leaf solve, or the interior Woodbury downdate (children — i.e. every
  /// deeper level — must already be done).
  void sweep_node(index_t id, la::Matrix<T>& x) const;
  /// The Woodbury downdate of one coupled interior node, applied to its
  /// children's already-solved row blocks (shared by both sweep modes so
  /// they are bit-identical by construction).
  void coupling_downdate(index_t id, la::Matrix<T>& top,
                         la::Matrix<T>& bot) const;
  /// Solves (K̃_id + λI) b = b in place; b holds the node's local rows.
  void solve_subtree(index_t id, la::Matrix<T>& b) const;

  // --- mixed precision ---------------------------------------------------
  /// Copies the float engine's counters/logdet into this object's fields,
  /// restamping the precision tag, the true λ, and the double-path flop
  /// ledger semantics (memory_bytes stays the float engine's — that IS the
  /// resident footprint).
  void adopt_low_stats(T regularization);

  index_t n_ = 0;
  index_t root_ = 0;
  FactorizeOptions options_;
  /// The view's bases are Nested: eliminate orthogonally (else Woodbury).
  bool orthogonal_ = false;
  /// Non-null only while the constructor runs (payload fetch phase).
  const HssView<T>* view_ = nullptr;
  std::vector<HssTopoNode> topo_;             ///< snapshot of the view
  std::vector<index_t> post_;                 ///< postorder node ids
  std::vector<std::vector<index_t>> levels_;  ///< node ids by depth
  std::vector<index_t> subtree_depth_;        ///< levels below each node, >= 1
  std::vector<index_t> declared_rank_;        ///< basis_rank() snapshot
  std::vector<index_t> perm_;                 ///< tree-ordering (may be empty)
  std::vector<FNode> fn_;                     ///< Woodbury factors
  std::vector<ONode> on_;                     ///< orthogonal factors
  /// Orthogonal solve slot lists: the tree-ordered workspace rows holding
  /// an interior node's reduced system (children's kept slots, left then
  /// right). Leaves use their contiguous row range directly.
  std::vector<std::vector<index_t>> slots_;
  /// Woodbury: leaf K(β, β) WITHOUT the λ shift, snapshotted from the view
  /// at construction so refactorize() never touches the view again. (Bases
  /// live in FNode::v, couplings in FNode::coupling.)
  std::vector<la::Matrix<T>> leaf_k_;
  /// The entire factorization when Precision::MixedF32 is requested on a
  /// double operator: a float engine built over a payload-demoting view
  /// (all storage — rotations, rotated blocks, couplings — at half the
  /// bytes, sweeps on the 8-lane f32 kernels). The outer object then only
  /// demotes b / promotes x at the solve boundary and mirrors
  /// stats/logdet/inertia. Null on native-precision factorizations.
  std::unique_ptr<UlvFactorization<float>> low_;
  FactorizationStats stats_;
  double logdet_ = 0;
  int det_sign_ = 1;
  index_t negative_total_ = 0;  ///< negative eigenvalues over all blocks
  index_t leaf_negative_ = 0;   ///< negative eigenvalues from leaf blocks
};

extern template class UlvFactorization<float>;
extern template class UlvFactorization<double>;

/// Builds the standard two-level preconditioner setup: compresses `k` at
/// a coarse tolerance with budget 0 (pure HSS, so the ULV factorization
/// captures every coupling), factorizes (K̃_coarse + λI) once with default
/// options, then escalates λ from `regularization` via cheap refactorize()
/// calls — each retry re-factors only the small rotated diagonal blocks —
/// until the factorization is positive definite (PCG breaks on an
/// indefinite preconditioner; the λ actually used is reported by
/// factorization_stats().regularization). A GOFMM compression always
/// eliminates orthogonally, so its block inertia is an exact certificate
/// (exact_inertia) and the escalation trusts it directly. The result plugs
/// into preconditioned_solve() / conjugate_gradient() against a
/// fine-tolerance operator of the same matrix.
template <typename T>
std::unique_ptr<CompressedMatrix<T>> make_preconditioner(
    std::shared_ptr<const SPDMatrix<T>> k, T regularization,
    Config coarse = Config::defaults().with_tolerance(1e-4));

extern template std::unique_ptr<CompressedMatrix<float>>
make_preconditioner<float>(std::shared_ptr<const SPDMatrix<float>>, float,
                           Config);
extern template std::unique_ptr<CompressedMatrix<double>>
make_preconditioner<double>(std::shared_ptr<const SPDMatrix<double>>, double,
                            Config);

}  // namespace gofmm
