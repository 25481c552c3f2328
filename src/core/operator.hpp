// The unified compressed-operator interface.
//
// Every compression backend in this library — GOFMM's CompressedMatrix,
// the HODLR and randomized-HSS baselines, and the global ACA low-rank
// operator — approximates the same thing: an SPD matrix known through an
// entry oracle, served as a fast matvec. This header defines the one
// abstraction they all implement, so solvers, benches, and examples are
// written once against CompressedOperator<T> and run against any backend.
//
// Thread safety contract: apply() is const and never mutates the operator.
// All per-evaluation scratch lives in a caller-owned EvalWorkspace, so N
// threads may call apply() on one shared operator concurrently, each with
// its own workspace. Reusing a workspace across calls amortises its
// allocations; sharing one workspace between concurrent calls is a data
// race, exactly like sharing any other scratch buffer.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "la/matrix.hpp"
#include "util/common.hpp"
#include "util/timer.hpp"

/// Geometry-oblivious FMM: SPD compression, Krylov solvers, and the shared
/// hierarchical factorization engine.
namespace gofmm {

/// Work counters for one evaluation (matvec) call.
struct EvaluationStats {
  double seconds = 0;       ///< wall-clock of the apply() call
  std::uint64_t flops = 0;  ///< per Table 2: N2S + S2S + S2N + L2L
  /// Achieved GFLOP/s of the call (0 before any call).
  [[nodiscard]] double gflops() const {
    return seconds > 0 ? double(flops) * 1e-9 / seconds : 0;
  }
};

/// Backend-agnostic summary of a compressed operator — the columns every
/// comparison table reports (build time, ranks, memory footprint).
struct OperatorStats {
  double compress_seconds = 0;    ///< wall-clock of the compression build
  double avg_rank = 0;            ///< mean low-rank block / skeleton rank
  index_t max_rank = 0;           ///< largest low-rank block / skeleton rank
  std::uint64_t memory_bytes = 0; ///< bytes held by the compressed form
};

/// Leaf elimination strategy of the hierarchical factorization engine.
///
/// The engine eliminates exact leaf diagonal blocks K(β, β) + λI. Those are
/// principal submatrices of the regularized operator, so compression error
/// or a small (or negative) λ can make them indefinite — plain Cholesky
/// then refuses to eliminate, while Bunch–Kaufman pivoted LDLᵀ factors any
/// symmetric block at the same n³/3 cost and carries the inertia needed for
/// signed log-determinants (see la/ldlt.hpp).
enum class Elimination {
  /// Try Cholesky per leaf, fall back to pivoted LDLᵀ on the leaves that
  /// are not positive definite. The default: PD operators pay nothing,
  /// indefinite compressions factor anyway.
  Auto,
  /// Cholesky only; throws gofmm::StateError when a leaf block (plus λ)
  /// is not positive definite. The strict pre-PR4 behaviour.
  Cholesky,
  /// Bunch–Kaufman pivoted LDLᵀ at every leaf, PD or not.
  PivotedLdlt,
};

/// Storage precision policy of the hierarchical factorization engine.
///
/// The ULV factors — stored rotations (la::QrFactors), rotated leaf
/// blocks, reduced couplings — dominate a factorized operator's resident
/// bytes. MixedF32 holds them all in float, halving that footprint
/// (which doubles how many operators an OperatorCache byte budget keeps
/// resident) and putting solve sweeps on the 8-lane f32 AVX2 kernels;
/// double accuracy is recovered by iterative refinement against the
/// operator's own double-precision matvec (refined_solve in
/// core/solvers.hpp, run automatically by Factorizable::solve when
/// SolveOptions::refine is set).
enum class Precision {
  /// Store the factors in the operator's native scalar T. The default.
  Double,
  /// Store the factors in float, refine solves back to double residuals.
  /// On a float operator this is identical to the native path.
  MixedF32,
};

/// Options of one factorize() call (see Factorizable::factorize).
/// Aggregate with a fluent builder mirroring Config::defaults():
/// `FactorizeOptions::defaults().with_precision(Precision::MixedF32)`.
/// The elimination structure is not an option: the operator's basis kind
/// fixes it (see HssView::basis_kind in core/hss_view.hpp).
struct FactorizeOptions {
  /// Leaf elimination strategy (see Elimination).
  Elimination elimination = Elimination::Auto;
  /// Storage precision of the factors (see Precision).
  Precision precision = Precision::Double;

  /// Default options, the seed of the with_* builder chain.
  [[nodiscard]] static FactorizeOptions defaults() {
    return FactorizeOptions{};
  }
  /// Sets the leaf elimination strategy.
  FactorizeOptions& with_elimination(Elimination v) {
    elimination = v;
    return *this;
  }
  /// Sets the storage precision of the factors.
  FactorizeOptions& with_precision(Precision v) {
    precision = v;
    return *this;
  }
};

/// Options of one solve. Accepted uniformly by Factorizable::solve,
/// conjugate_gradient / preconditioned_solve, refined_solve, and
/// SolveService::submit; each path reads the fields that apply to it.
/// Aggregate with a fluent builder:
/// `SolveOptions::defaults().with_target_residual(1e-10)`.
struct SolveOptions {
  /// Run iterative refinement after the direct sweep when the
  /// factorization stores reduced-precision factors (Precision::MixedF32).
  /// Native-precision factorizations ignore the flag — their direct sweep
  /// is already exact — so leaving it true costs nothing there.
  bool refine = true;
  /// Relative residual ‖b − (A+λI)x‖/‖b‖ to drive each column to: the
  /// refinement stopping target, and the Krylov solvers' rel_tol.
  double target_residual = 1e-8;
  /// Refinement correction sweeps before giving up (the best iterate per
  /// column is kept either way). Converging cases take 1-3.
  index_t max_refine_iters = 8;
  /// Iteration cap of the Krylov solvers (ignored by direct solves).
  index_t max_iterations = 500;

  /// Default options, the seed of the with_* builder chain.
  [[nodiscard]] static SolveOptions defaults() { return SolveOptions{}; }
  /// Enables/disables refinement on mixed-precision factorizations.
  SolveOptions& with_refine(bool v) {
    refine = v;
    return *this;
  }
  /// Sets the relative-residual target.
  SolveOptions& with_target_residual(double v) {
    target_residual = v;
    return *this;
  }
  /// Sets the refinement sweep cap.
  SolveOptions& with_max_refine_iters(index_t v) {
    max_refine_iters = v;
    return *this;
  }
  /// Sets the Krylov iteration cap.
  SolveOptions& with_max_iterations(index_t v) {
    max_iterations = v;
    return *this;
  }
};

/// Work/footprint summary of one factorize() call.
struct FactorizationStats {
  double seconds = 0;            ///< wall-clock of factorize()/refactorize()
  std::uint64_t flops = 0;       ///< Cholesky/LDLᵀ + GEMM + LU work
  std::uint64_t memory_bytes = 0;///< bytes held by the stored factors
  double regularization = 0;     ///< λ folded into the factored operator
  /// Coupled sibling systems folded in: Woodbury capacitance systems
  /// factored, or (orthogonal structure) coupled reduced blocks
  /// eliminated — λ-linear frontier nodes, whose coupling lives inside
  /// an ancestor's cache, are not counted.
  index_t num_couplings = 0;
  /// Largest coupled system order (r_l + r_r) seen by the count above.
  index_t max_coupling_size = 0;
  /// Diagonal blocks eliminated via pivoted LDLᵀ (under the Woodbury
  /// structure those are exactly the leaves; the orthogonal structure also
  /// counts its rotated interior blocks).
  index_t ldlt_leaves = 0;
  /// Negative eigenvalues visible to the elimination. Woodbury: the leaf
  /// LDLᵀ blocks only — leaves are principal submatrices of the
  /// (regularized, permuted) operator, so by Cauchy interlacing any count
  /// > 0 proves the operator indefinite. Orthogonal: the exact operator
  /// total (same value as negative_eigenvalues).
  index_t leaf_negative_eigenvalues = 0;
  /// refactorize() calls served by this factorization since it was built.
  index_t num_refactorizations = 0;
  /// Storage precision the factors are held in. Under Precision::MixedF32
  /// memory_bytes reflects the float storage (~2× below the double path)
  /// and solves should run with SolveOptions::refine to recover double
  /// residuals.
  Precision precision = Precision::Double;
  /// True when the factorization ran the stored-Q orthogonal elimination
  /// (every view with nested bases); false on the Woodbury path (HODLR's
  /// explicit bases).
  bool orthogonal = false;
  /// Negative eigenvalues of the factored operator as summed over the
  /// eliminated diagonal blocks. EXACT under the orthogonal elimination
  /// (orthogonal similarity preserves inertia and Haynsworth additivity
  /// sums it over the Schur chain — see exact_inertia); on the Woodbury
  /// path only the leaf contribution is visible and the count is a lower
  /// bound.
  index_t negative_eigenvalues = 0;
  /// True when negative_eigenvalues / positive_definite are exact rather
  /// than the Woodbury path's interlacing lower bound. Callers holding an
  /// exact-inertia factorization can trust positive_definite outright.
  bool exact_inertia = false;
  /// Whether the factored operator came out positive definite. Compression
  /// error can push K̃ + λI indefinite when λ is below ε₂‖K‖ (paper
  /// "Limitations"); solve() still applies the exact inverse then, but
  /// logdet() throws and PCG must not use the factorization — raise λ
  /// (cheap via refactorize()).
  bool positive_definite = false;
};

/// Optional capability of a compressed operator: a hierarchical direct
/// factorization of (Op + λI) enabling solves and log-determinants.
///
/// Contract mirroring the evaluation discipline: factorize() and
/// refactorize() are MUTATING setup steps (run them before sharing the
/// operator across threads); solve() and logdet() are const and
/// thread-safe afterwards — any number of threads may solve against one
/// factorized operator concurrently, and repeated solves of the same
/// right-hand side are bit-identical.
template <typename T>
class Factorizable {
 public:
  virtual ~Factorizable() = default;  ///< capability handles are polymorphic

  /// Builds the factorization of (Op + regularization·I). λ > 0 both
  /// regularises ill-conditioned kernels and restores positive
  /// definiteness lost to compression error (paper "Limitations"); λ < 0
  /// (spectrum shifts) is allowed and factors through the pivoted-LDLᵀ
  /// leaf path of `options` (Elimination::Cholesky then throws).
  /// Calling again re-factorizes from scratch (e.g. with a different λ);
  /// prefer refactorize() when only λ changed.
  virtual void factorize(T regularization = T(0),
                         FactorizeOptions options = {}) = 0;

  /// Re-eliminates the existing factorization with a new λ, reusing every
  /// λ-independent quantity (bases, transfer maps, couplings, leaf
  /// payloads): an O(N r²)-per-level update with no oracle traffic, versus
  /// the full rebuild factorize() performs — the cheap path for
  /// make_preconditioner's λ escalation and kernel-regression λ sweeps.
  /// Results are bit-identical to a fresh factorize() at the same λ with
  /// the same options. When no factorization exists (never built, or
  /// dropped by a failed call) it builds one with the options of the last
  /// factorize() call.
  virtual void refactorize(T regularization) = 0;

  /// True once factorize() has completed.
  [[nodiscard]] virtual bool factorized() const = 0;

  /// x ≈ (Op + λI)⁻¹ b for an N-by-r block of right-hand sides, solved in
  /// ONE blocked sweep with r-wide GEMMs (not r sequential sweeps). When
  /// the factorization stores float factors (Precision::MixedF32) and
  /// `options.refine` is set, the sweep is followed by iterative
  /// refinement against the operator's own double-precision matvec until
  /// `options.target_residual`; native-precision factorizations ignore
  /// `options` entirely, so the default argument changes nothing for them.
  /// Const + thread-safe; throws StateError before factorize().
  [[nodiscard]] virtual la::Matrix<T> solve(
      const la::Matrix<T>& b,
      const SolveOptions& options = SolveOptions::defaults()) const = 0;

  /// log det(Op + λI) of the factored operator (exact for the factored
  /// approximation). Throws StateError before factorize(), or if the
  /// factored operator turned out not positive definite.
  [[nodiscard]] virtual double logdet() const = 0;

  /// Work counters of the most recent factorize().
  [[nodiscard]] virtual FactorizationStats factorization_stats() const = 0;
};

/// Caller-owned scratch for one in-flight apply(). The fields are generic
/// slots the backends interpret as they need:
///   x, y      N-by-r input/output staging (GOFMM: tree-ordered w/u)
///   up, down  per-node skeleton weights/potentials, indexed by node id
///   flops     work counter accumulated across the call's parallel tasks
/// A default-constructed workspace fits any operator; buffers grow on
/// first use and are reused by later calls.
template <typename T>
struct EvalWorkspace {
  /// Empty workspace; buffers grow on first use.
  EvalWorkspace() = default;
  /// Non-copyable: sharing scratch between calls is a data race.
  EvalWorkspace(const EvalWorkspace&) = delete;
  /// Non-copyable: sharing scratch between calls is a data race.
  EvalWorkspace& operator=(const EvalWorkspace&) = delete;

  /// Clears the call-scoped state (counters, last-call stats) while
  /// RETAINING every buffer's capacity: Matrix::resize assigns in place
  /// when the new extent fits the existing allocation, so a workspace
  /// cycled through reset() serves same-shape evaluations without
  /// reallocating x, y, up or down — the contract the service's
  /// WorkspacePool (src/service/solve_service.hpp) leases workspaces
  /// under. Per-task scratch is not pooled: GOFMM's S2N tasks allocate a
  /// transposed P and an accumulator, its L2L tasks an accumulator, and
  /// with cache_blocks off S2S/L2L evaluate their K blocks on demand.
  void reset() noexcept {
    flops.store(0, std::memory_order_relaxed);
    last = EvaluationStats{};
  }

  la::Matrix<T> x;                    ///< staged right-hand sides
  la::Matrix<T> y;                    ///< staged outputs
  std::vector<la::Matrix<T>> up;      ///< upward per-node buffers
  std::vector<la::Matrix<T>> down;    ///< downward per-node buffers
  std::atomic<std::uint64_t> flops{0};///< work counter across parallel tasks
  EvaluationStats last;               ///< stats of the latest apply()
};

/// Abstract compressed SPD operator: a thread-safe approximate matvec.
template <typename T>
class CompressedOperator {
 public:
  virtual ~CompressedOperator() = default;  ///< operators are polymorphic

  /// Matrix order N.
  [[nodiscard]] virtual index_t size() const = 0;

  /// Short backend tag ("gofmm", "hodlr", "rand_hss", "aca").
  [[nodiscard]] virtual std::string name() const = 0;

  /// Bytes held by the compressed representation.
  [[nodiscard]] virtual std::uint64_t memory_bytes() const = 0;

  /// Build-time and structural summary of the compression.
  [[nodiscard]] virtual OperatorStats operator_stats() const = 0;

  /// The operator's factorization capability, or nullptr when the backend
  /// has none. Backends that can solve (GOFMM's CompressedMatrix, the
  /// HODLR and randomized-HSS baselines — all HierarchicalOperators over
  /// the shared ULV engine) return themselves; generic code can then probe
  /// `op.factorizable()` and fall back to iterative solves.
  [[nodiscard]] virtual Factorizable<T>* factorizable() { return nullptr; }
  /// Const view of the factorization capability (nullptr when absent).
  [[nodiscard]] virtual const Factorizable<T>* factorizable() const {
    return nullptr;
  }

  /// u = Op * w for an N-by-r block of right-hand sides. Const and
  /// thread-safe: all scratch lives in `ws`, whose `last` field receives
  /// this call's timing/flop counters.
  la::Matrix<T> apply(const la::Matrix<T>& w, EvalWorkspace<T>& ws) const {
    check<DimensionError>(w.rows() == size(),
                          name() + "::apply: w has wrong row count");
    Timer timer;
    ws.flops.store(0, std::memory_order_relaxed);
    la::Matrix<T> u = do_apply(w, ws);
    ws.last.seconds = timer.seconds();
    ws.last.flops = ws.flops.load(std::memory_order_relaxed);
    return u;
  }

  /// Convenience overload with a throwaway workspace (still thread-safe;
  /// a reused workspace avoids the per-call allocations).
  [[nodiscard]] la::Matrix<T> apply(const la::Matrix<T>& w) const {
    EvalWorkspace<T> ws;
    return apply(w, ws);
  }

 protected:
  /// Backend matvec; shapes are already validated.
  virtual la::Matrix<T> do_apply(const la::Matrix<T>& w,
                                 EvalWorkspace<T>& ws) const = 0;
};

}  // namespace gofmm
