// Incremental forward stagewise regression (epsilon-stagewise).
//
// The third member of the family Efron et al. unify with LAR and LASSO:
// at each micro-step, nudge the coefficient of the most-correlated column by
// +/- epsilon. As epsilon -> 0 its solution path converges to the LAR/LASSO
// path; at finite epsilon it is the cheapest-per-step (if slowest-overall)
// of the sparse solvers. Included for completeness of the solver family and
// as a cross-check of the LAR implementation.
#pragma once

#include "core/solver_path.hpp"

namespace rsm {

class StagewiseSolver final : public PathSolver {
 public:
  struct Options {
    /// Step size as a fraction of the initial max |correlation| / ||col||^2.
    Real epsilon = 0.01;

    /// Micro-steps folded into one recorded path step (recording every
    /// epsilon-nudge would make the CV curves needlessly long).
    Index steps_per_record = 50;
  };

  StagewiseSolver() = default;
  explicit StagewiseSolver(const Options& options) : options_(options) {}

  using PathSolver::fit_path;
  [[nodiscard]] SolverPath fit_path(const ColumnSource& g,
                                    std::span<const Real> f,
                                    Index max_steps) const override;

  [[nodiscard]] const char* name() const override { return "Stagewise"; }

 private:
  Options options_;
};

}  // namespace rsm
