// Least angle regression (Efron, Hastie, Johnstone, Tibshirani 2004) — the
// solver contributed by the DAC 2009 paper [2].
//
// LAR relaxes the L0 constraint of eq. (11) to an L1 constraint and traces
// the whole regularization path: starting from alpha = 0 it moves the
// coefficients of the currently most-correlated ("least angle") set along
// the equiangular direction until an inactive column ties, then admits it.
// With the LASSO modification enabled, a coefficient hitting zero leaves the
// active set, making the path exactly the LASSO solution path.
//
// Implementation notes:
//  - columns are normalized to unit 2-norm in one K x M copy, read column
//    by column from the source; reported coefficients are de-normalized
//    back to design-matrix scale;
//  - the active-set Gram matrix keeps an incrementally grown Cholesky
//    factor (O(p^2) per added column, rebuild on LASSO drop);
//  - per step the dominant cost is two K x M correlations (c = G'r and
//    a = G'u), about twice OMP's one — visible in the paper's fitting-cost
//    rows (Tables I/III/IV: LAR fitting time ~2x OMP).
#pragma once

#include "core/solver_path.hpp"

namespace rsm {

class LarSolver final : public PathSolver {
 public:
  struct Options {
    /// Apply the LASSO modification (drop variables whose coefficient
    /// crosses zero). Off = pure LAR, as used in the paper.
    bool lasso = false;

    /// Stop when the maximal absolute correlation falls below this times
    /// its initial value.
    Real correlation_tolerance = 1e-12;
  };

  LarSolver() = default;
  explicit LarSolver(const Options& options) : options_(options) {}

  using PathSolver::fit_path;
  [[nodiscard]] SolverPath fit_path(const ColumnSource& g,
                                    std::span<const Real> f,
                                    Index max_steps) const override;

  [[nodiscard]] const char* name() const override { return "LAR"; }

 private:
  Options options_;
};

}  // namespace rsm
