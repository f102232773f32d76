// STAR — statistical regression baseline from DAC 2008 [1].
//
// Identical selection criterion to OMP, but Step 6 is replaced: the
// coefficient of the selected basis vector is set directly to the
// inner-product estimate xi_s = G_s' Res / K (eq. (18)) instead of
// re-solving least squares over the active set. Because the residual is not
// orthogonalized against earlier selections, STAR may re-select a column to
// refine its coefficient; contributions accumulate. This is the ablation the
// paper uses to show why OMP's re-fit matters (Table II: 1.5-5x error gap).
#pragma once

#include "core/solver_path.hpp"

namespace rsm {

class StarSolver final : public PathSolver {
 public:
  using PathSolver::fit_path;
  [[nodiscard]] SolverPath fit_path(const ColumnSource& g,
                                    std::span<const Real> f,
                                    Index max_steps) const override;

  [[nodiscard]] const char* name() const override { return "STAR"; }
};

}  // namespace rsm
