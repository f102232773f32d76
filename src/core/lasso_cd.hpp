// LASSO by cyclic coordinate descent.
//
// The paper relaxes the L0 constraint of eq. (11) to an L1 constraint and
// solves it with LAR; coordinate descent is the other standard solver for
// the same convex program,
//   min_a  (1/2K) ||G a - F||_2^2 + mu ||a||_1,
// and serves here as an independent cross-check of the LAR path (at matched
// mu the two must agree) and as a warm-startable solver for the bench
// ablations. Emits a SolverPath over a geometric grid of mu values so the
// cross-validation machinery applies unchanged.
#pragma once

#include "core/solver_path.hpp"

namespace rsm {

class LassoCdSolver final : public PathSolver {
 public:
  struct Options {
    /// Grid: mu_t = mu_max * ratio^t, t = 0..num_values-1, where mu_max is
    /// the smallest mu with an all-zero solution. num_values is clamped to
    /// the caller's max_steps.
    Real grid_ratio = 0.85;

    /// Convergence: stop a mu-point when no coefficient moves more than
    /// this fraction of the largest coefficient magnitude.
    Real tolerance = 1e-8;

    int max_sweeps_per_mu = 1000;
  };

  LassoCdSolver() = default;
  explicit LassoCdSolver(const Options& options) : options_(options) {}

  /// Path step t holds the active set and coefficients at grid point mu_t
  /// (warm-started from mu_{t-1}).
  using PathSolver::fit_path;
  [[nodiscard]] SolverPath fit_path(const ColumnSource& g,
                                    std::span<const Real> f,
                                    Index max_steps) const override;

  /// Single solve at an explicit penalty; returns the dense coefficients.
  [[nodiscard]] std::vector<Real> fit_at(const ColumnSource& g,
                                         std::span<const Real> f,
                                         Real mu) const;

  [[nodiscard]] const char* name() const override { return "LASSO-CD"; }

 private:
  Options options_;
};

}  // namespace rsm
