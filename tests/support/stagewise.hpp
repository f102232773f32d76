// Incremental forward stagewise regression (epsilon-stagewise), the
// independent reference for the LAR path.
//
// At each micro-step the coefficient of the most-correlated column moves by
// +/- epsilon. Efron et al. (2004) show that on unit-norm columns, as
// epsilon -> 0, this path converges to the LAR path for as long as LAR's
// coefficients move monotonically away from zero. One full correlation
// scan per nudge makes it far too slow to fit with; tests compare LAR
// against it.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/common.hpp"

namespace rsm {

struct StagewiseOptions {
  /// Step size as a fraction of the initial max |correlation| / ||col||^2.
  Real epsilon = 0.01;

  /// Micro-steps folded into one recorded step.
  Index steps_per_record = 50;
};

struct StagewisePath {
  /// coefficients[t] is the dense coefficient vector after record t.
  std::vector<std::vector<Real>> coefficients;

  /// Residual 2-norm after each record.
  std::vector<Real> residual_norms;

  [[nodiscard]] Index num_records() const {
    return static_cast<Index>(coefficients.size());
  }
};

/// Runs `num_records * options.steps_per_record` stagewise nudges of
/// min ||G a - F||_2 and records the coefficients every steps_per_record
/// nudges. Empty when F is orthogonal to every column.
[[nodiscard]] StagewisePath stagewise_path(
    const Matrix& g, std::span<const Real> f, Index num_records,
    const StagewiseOptions& options = {});

}  // namespace rsm
