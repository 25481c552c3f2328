#include "core/hierarchical_operator.hpp"

#include "core/error.hpp"
#include "core/factorization.hpp"
#include "core/solvers.hpp"

namespace gofmm {

template <typename T>
HierarchicalOperator<T>::HierarchicalOperator() = default;

template <typename T>
HierarchicalOperator<T>::~HierarchicalOperator() = default;

template <typename T>
void HierarchicalOperator<T>::factorize(T regularization,
                                        FactorizeOptions options) {
  // Invalidate up front — deliberately trading the strong exception
  // guarantee for loudness: after a FAILED re-factorize the operator
  // throws StateError on solve() instead of silently serving the old-λ
  // factors to a caller who asked for a new λ.
  fact_.reset();
  options_ = options;
  const std::unique_ptr<const HssView<T>> view = hss_view();
  fact_ = std::make_unique<UlvFactorization<T>>(*view, regularization, options);
}

template <typename T>
void HierarchicalOperator<T>::refactorize(T regularization) {
  if (fact_ == nullptr) {
    factorize(regularization, options_);
    return;
  }
  try {
    fact_->refactorize(regularization);
  } catch (...) {
    // A failed re-elimination leaves the factors inconsistent; drop them
    // so solve() throws StateError instead of serving garbage.
    fact_.reset();
    throw;
  }
}

template <typename T>
la::Matrix<T> HierarchicalOperator<T>::solve(
    const la::Matrix<T>& b, const SolveOptions& options) const {
  const UlvFactorization<T>& f = factors("solve");
  // Under MixedF32 a raw float-factored sweep carries ~1e-6 relative
  // error; iterative refinement (double-accumulated residuals against the
  // compressed apply) drives it back to options.target_residual. Native
  // factorizations return the direct sweep untouched.
  if (options.refine && f.stats().precision == Precision::MixedF32) {
    la::Matrix<T> x;
    refined_solve(*this, *this, T(f.stats().regularization), b, x, options);
    return x;
  }
  return f.solve(b);
}

template <typename T>
double HierarchicalOperator<T>::logdet() const {
  return factors("logdet").logdet();
}

template <typename T>
FactorizationStats HierarchicalOperator<T>::factorization_stats() const {
  return factors("factorization_stats").stats();
}

template <typename T>
const UlvFactorization<T>& HierarchicalOperator<T>::factorization() const {
  return factors("factorization");
}

template <typename T>
std::uint64_t HierarchicalOperator<T>::factor_bytes() const {
  return fact_ != nullptr ? fact_->stats().memory_bytes : 0;
}

template <typename T>
const UlvFactorization<T>& HierarchicalOperator<T>::factors(
    const char* what) const {
  if (fact_ == nullptr)
    throw StateError(this->name() + "::" + what + ": call factorize() first");
  return *fact_;
}

template class HierarchicalOperator<float>;
template class HierarchicalOperator<double>;

}  // namespace gofmm
