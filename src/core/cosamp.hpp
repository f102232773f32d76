// CoSaMP — compressive sampling matching pursuit (Needell & Tropp 2009).
//
// The other canonical greedy L0 heuristic from the compressed-sensing
// literature the paper builds on: instead of growing the support one column
// per iteration (OMP), CoSaMP proposes 2s candidates per iteration, solves
// LS on the merged support, and prunes back to the s largest coefficients —
// so early mistakes can be *undone*, which OMP's nested path cannot do.
// Included to round out the solver family and as an ablation point: on the
// well-conditioned random designs here the two are nearly equivalent, with
// CoSaMP occasionally recovering from a wrong early pick.
#pragma once

#include "core/solver_path.hpp"

namespace rsm {

class CosampSolver final : public PathSolver {
 public:
  struct Options {
    /// Stop when the residual improves by less than this factor between
    /// iterations (the support has stabilized).
    Real stall_tolerance = 1e-7;

    /// Hard cap on refinement iterations per sparsity level.
    int max_iterations = 30;
  };

  CosampSolver() = default;
  explicit CosampSolver(const Options& options) : options_(options) {}

  /// Path semantics differ from OMP's: step t is the *converged* CoSaMP
  /// solution at sparsity s = t + 1 (supports are not nested between steps;
  /// active_sets is always populated).
  using PathSolver::fit_path;
  [[nodiscard]] SolverPath fit_path(const ColumnSource& g,
                                    std::span<const Real> f,
                                    Index max_steps) const override;

  /// Single solve at a fixed sparsity (the usual way CoSaMP is run).
  [[nodiscard]] SolverPath fit_at_sparsity(const ColumnSource& g,
                                           std::span<const Real> f,
                                           Index sparsity) const;

  [[nodiscard]] const char* name() const override { return "CoSaMP"; }

 private:
  Options options_;
};

}  // namespace rsm
