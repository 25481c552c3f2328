// HierarchicalOperator: the one owner of the ULV factor lifecycle, shared
// by GOFMM's CompressedMatrix and the HODLR and randomized-HSS baselines.
// Each backend adds only its HssView; the shared engine it feeds is
// UlvFactorization (core/factorization.hpp).
#pragma once

#include <cstdint>
#include <memory>

#include "core/hss_view.hpp"
#include "core/operator.hpp"
#include "la/matrix.hpp"

namespace gofmm {

/// The shared ULV engine (core/factorization.hpp); only a pointer to it is
/// held here.
template <typename T>
class UlvFactorization;

/// A compressed operator whose hierarchy the shared ULV engine factors:
/// CompressedOperator plus the Factorizable capability, implemented once.
///
/// factorize(λ, options) hands hss_view() to UlvFactorization, which
/// eliminates with stored orthogonal rotations over nested bases (GOFMM,
/// randomized HSS) or with Woodbury capacitance systems over explicit ones
/// (HODLR) — the view's basis kind decides, there is no option. For a pure
/// HSS structure (GOFMM at budget 0, randomized HSS, HODLR) solve()
/// inverts apply() to round-off; a GOFMM compression with a direct budget
/// > 0 drops its near/far corrections from the factorization, so solve()
/// is then a preconditioner-quality approximate inverse (see
/// preconditioned_solve in core/solvers.hpp).
///
/// Lifecycle policy:
///  * factorize() drops the old factors BEFORE building the new ones, so a
///    failed build leaves the operator unfactorized: solve() throws
///    StateError instead of silently serving factors of another λ.
///  * refactorize(λ) retunes the existing factors in place (bit-identical
///    to a fresh factorize(λ) with the same options). A failed retune
///    drops the factors for the same reason. When no factors exist —
///    never built, or dropped by a failure — it rebuilds with the options
///    of the last factorize(), so a retune never changes the precision or
///    elimination that was asked for.
///  * solve() on MixedF32 factors with SolveOptions::refine runs
///    refined_solve against this operator's own matvec.
///
/// Thread safety: factorize()/refactorize() mutate (run them before
/// sharing the operator); solve()/logdet() are const, thread-safe, and
/// bit-deterministic afterwards.
template <typename T>
class HierarchicalOperator : public CompressedOperator<T>,
                             public Factorizable<T> {
 public:
  // Out-of-line: the ULV factors are an incomplete type here.
  ~HierarchicalOperator() override;
  /// Not copyable (nor, hence, movable): the factors are owned uniquely.
  HierarchicalOperator(const HierarchicalOperator&) = delete;
  /// Not copy-assignable, for the same reason.
  HierarchicalOperator& operator=(const HierarchicalOperator&) = delete;

  /// This operator (every hierarchical backend can factorize).
  [[nodiscard]] Factorizable<T>* factorizable() override { return this; }
  /// This operator (every hierarchical backend can factorize).
  [[nodiscard]] const Factorizable<T>* factorizable() const override {
    return this;
  }

  /// Drops any existing factors, then builds the ULV factorization of
  /// (Op + regularization·I) over hss_view() and records `options` for
  /// later rebuilds.
  void factorize(T regularization = T(0),
                 FactorizeOptions options = {}) override;
  /// Retunes the factors to a new λ with zero view or oracle traffic;
  /// rebuilds with the last factorize() options when none exist.
  void refactorize(T regularization) override;
  /// True while the operator holds factors.
  [[nodiscard]] bool factorized() const override { return fact_ != nullptr; }
  /// Blocked level-parallel ULV sweep; refined on MixedF32 factors when
  /// `options.refine` is set. Throws StateError when not factorized.
  [[nodiscard]] la::Matrix<T> solve(
      const la::Matrix<T>& b,
      const SolveOptions& options = SolveOptions::defaults()) const override;
  /// log det(Op + λI); throws StateError when not factorized or not
  /// positive definite.
  [[nodiscard]] double logdet() const override;
  /// Work counters of the current factors; throws StateError when none.
  [[nodiscard]] FactorizationStats factorization_stats() const override;

  /// The ULV factors — exposed for sweep-mode verification and advanced
  /// use. Throws StateError when not factorized.
  [[nodiscard]] const UlvFactorization<T>& factorization() const;

 protected:
  // Out-of-line like the destructor (the ULV factors are incomplete here);
  // protected: only backends construct the base.
  HierarchicalOperator();

  /// The backend's hierarchy as the engine consumes it. Called once per
  /// factorize(); the engine snapshots what it needs, so the view dies
  /// when the build returns.
  [[nodiscard]] virtual std::unique_ptr<const HssView<T>> hss_view()
      const = 0;

  /// Bytes held by the factors (0 when unfactorized) — the term every
  /// backend adds to memory_bytes().
  [[nodiscard]] std::uint64_t factor_bytes() const;

 private:
  /// The factors, or StateError naming `what` when there are none.
  const UlvFactorization<T>& factors(const char* what) const;

  // Null until factorize(); immutable between factorize()/refactorize()
  // calls, so const solve()/logdet() are thread-safe.
  std::unique_ptr<UlvFactorization<T>> fact_;
  FactorizeOptions options_;  // of the last factorize(), for rebuilds
};

extern template class HierarchicalOperator<float>;
extern template class HierarchicalOperator<double>;

}  // namespace gofmm
