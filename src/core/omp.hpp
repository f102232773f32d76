// Orthogonal matching pursuit — Algorithm 1 of the paper.
//
// Per iteration: (3) correlate the residual with every column, (4-5) select
// the most correlated column, (6) re-solve the least-squares coefficients of
// the whole active set, (7) update the residual. The re-solve is implemented
// with an incrementally grown thin QR (see linalg/incremental_qr.hpp), which
// is numerically identical to re-fitting from scratch but O(lambda) cheaper.
#pragma once

#include "core/solver_path.hpp"

namespace rsm {

class OmpSolver final : public PathSolver {
 public:
  using PathSolver::fit_path;
  [[nodiscard]] SolverPath fit_path(const ColumnSource& g,
                                    std::span<const Real> f,
                                    Index max_steps) const override;

  [[nodiscard]] const char* name() const override { return "OMP"; }
};

}  // namespace rsm
