// Cholesky factorization of symmetric positive-definite matrices.
//
// Used by the ridge-regularized (normal-equation) path of the LS baseline.
// LAR grows its active-set Gram factor incrementally with the same
// recurrence (core/lar.cpp).
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/common.hpp"

namespace rsm {

/// Lower-triangular Cholesky factor L with A = L L'.
class CholeskyFactorization {
 public:
  /// Factorizes symmetric positive-definite `a` (only the lower triangle is
  /// read). Throws rsm::Error if a non-positive pivot is encountered.
  explicit CholeskyFactorization(const Matrix& a);

  [[nodiscard]] Index size() const { return l_.rows(); }

  /// Solves A x = b via forward + backward substitution.
  [[nodiscard]] std::vector<Real> solve(std::span<const Real> b) const;

  /// Solves L y = b (forward substitution).
  [[nodiscard]] std::vector<Real> solve_lower(std::span<const Real> b) const;

  /// Solves L' x = y (backward substitution).
  [[nodiscard]] std::vector<Real> solve_upper(std::span<const Real> y) const;

  /// The factor L (lower triangular).
  [[nodiscard]] const Matrix& l() const { return l_; }

  /// log(det A) = 2 * sum(log L(i,i)); used by statistical diagnostics.
  [[nodiscard]] Real log_determinant() const;

 private:
  Matrix l_;
};

/// Convenience: solve the SPD system A x = b in one call.
[[nodiscard]] std::vector<Real> cholesky_solve(const Matrix& a,
                                               std::span<const Real> b);

}  // namespace rsm
