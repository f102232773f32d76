// Simultaneous orthogonal matching pursuit (S-OMP).
//
// Extension feature: the OpAmp's four metrics (gain, bandwidth, power,
// offset) are driven by an overlapping handful of device-level variations.
// S-OMP fits all responses at once, selecting at every iteration the basis
// vector with the largest *joint* correlation energy across responses, then
// re-solving each response's least-squares coefficients over the shared
// support. Compared to running OMP per response it
//   * amortizes the selection scans across responses, and
//   * yields one common support — smaller total model storage and a clean
//     answer to "which variations matter for this circuit at all?".
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/common.hpp"

namespace rsm {

struct SompResult {
  /// Shared support, in selection order.
  std::vector<Index> support;

  /// coefficients[r] aligns with `support` for response r.
  std::vector<std::vector<Real>> coefficients;

  /// Residual 2-norm per response after the final step.
  std::vector<Real> residual_norms;
};

class SompSolver {
 public:
  /// Fits all columns of `responses` (K x R) against the shared design
  /// matrix `g` (K x M) with a common support of up to `max_terms` columns.
  [[nodiscard]] SompResult fit(const Matrix& g, const Matrix& responses,
                               Index max_terms) const;
};

}  // namespace rsm
