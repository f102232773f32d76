// Least angle regression (Efron, Hastie, Johnstone, Tibshirani 2004) — the
// solver contributed by the DAC 2009 paper [2].
//
// LAR relaxes the L0 constraint of eq. (11) to an L1 constraint and traces
// the whole regularization path: starting from alpha = 0 it moves the
// coefficients of the currently most-correlated ("least angle") set along
// the equiangular direction until an inactive column ties, then admits it.
// This is pure LAR, as the paper uses it: every step admits one column and
// none leaves (Efron et al.'s LASSO modification is not implemented).
//
// Implementation notes:
//  - columns are normalized to unit 2-norm in one K x M copy, read column
//    by column from the source; reported coefficients are de-normalized
//    back to design-matrix scale;
//  - the active-set Gram matrix keeps an incrementally grown Cholesky
//    factor (O(p^2) per added column);
//  - per step the dominant cost is two K x M correlations (c = G'r and
//    a = G'u), about twice OMP's one — visible in the paper's fitting-cost
//    rows (Tables I/III/IV: LAR fitting time ~2x OMP).
#pragma once

#include "core/solver_path.hpp"

namespace rsm {

class LarSolver final : public PathSolver {
 public:
  using PathSolver::fit_path;
  [[nodiscard]] SolverPath fit_path(const ColumnSource& g,
                                    std::span<const Real> f,
                                    Index max_steps) const override;

  [[nodiscard]] const char* name() const override { return "LAR"; }
};

}  // namespace rsm
