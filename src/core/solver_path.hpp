// Common solver interface: every sparse method emits a *path* of nested (or
// breakpoint) models, one per sparsity level lambda.
//
// Cross-validation (Section IV-C) needs the modeling error as a 1-D function
// of lambda; emitting the whole path in one fit makes the Q-fold CV cost
// Q * (one path fit) instead of Q * lambda_max separate fits.
#pragma once

#include <span>
#include <vector>

#include "core/column_source.hpp"
#include "linalg/matrix.hpp"
#include "util/common.hpp"

namespace rsm {

/// The sequence of models produced by one solver run.
///
/// Step t (0-based) uses the first coefficients[t].size() entries of
/// `selection_order` as its support. Every solver's supports are nested:
/// OMP and STAR add one column per step, and for LAR each step is a
/// breakpoint of the piecewise-linear coefficient path that admits one
/// column.
struct SolverPath {
  /// Column indices in order of selection; step t's support is a prefix.
  std::vector<Index> selection_order;

  /// coefficients[t][s] multiplies column support(t)[s].
  std::vector<std::vector<Real>> coefficients;

  /// Residual 2-norm after each step (diagnostic).
  std::vector<Real> residual_norms;

  [[nodiscard]] Index num_steps() const {
    return static_cast<Index>(coefficients.size());
  }

  /// Support of step t (indices into the design-matrix columns).
  [[nodiscard]] std::vector<Index> support(Index t) const;

  /// Dense coefficient vector (length num_columns) of step t.
  [[nodiscard]] std::vector<Real> dense_coefficients(Index t,
                                                     Index num_columns) const;
};

/// Abstract path-emitting sparse solver. Every solver reads G only through
/// a ColumnSource (core/column_source.hpp), so the same fit runs on a
/// matrix, on a row view of one (a cross-validation fold), or on a lazily
/// evaluated dictionary. Derived classes override the source overload and
/// re-export the matrix one with `using PathSolver::fit_path;`.
class PathSolver {
 public:
  virtual ~PathSolver() = default;

  /// Fits up to `max_steps` steps of the path for min ||G a - F||_2 with the
  /// method's sparsity heuristic. F.size() == G.rows().
  [[nodiscard]] virtual SolverPath fit_path(const ColumnSource& g,
                                            std::span<const Real> f,
                                            Index max_steps) const = 0;

  /// The same fit on an explicit matrix (MaterializedSource(g)).
  [[nodiscard]] SolverPath fit_path(const Matrix& g, std::span<const Real> f,
                                    Index max_steps) const;

  /// Method name for reports ("OMP", "STAR", "LAR", ...).
  [[nodiscard]] virtual const char* name() const = 0;
};

}  // namespace rsm
