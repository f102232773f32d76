// Traditional least-squares fitting baseline [21].
//
// Solves the over-determined system of eq. (6) — which requires K >= M
// training samples, the very cost the paper's sparse methods eliminate.
// Plain least squares uses Householder QR (numerically robust, O(K M^2));
// an optional ridge term stabilizes K ~ M and is solved through the normal
// equations with Cholesky.
#pragma once

#include <span>
#include <vector>

#include "core/solver_path.hpp"
#include "linalg/matrix.hpp"
#include "util/common.hpp"

namespace rsm {

class LeastSquaresFitter {
 public:
  struct Options {
    /// Tikhonov regularization strength (0 = plain least squares).
    Real ridge = 0;
  };

  LeastSquaresFitter() = default;
  explicit LeastSquaresFitter(const Options& options) : options_(options) {}

  /// Dense coefficient vector minimizing ||G a - F||_2 (+ ridge).
  /// Requires G.rows() >= G.cols() when ridge == 0.
  [[nodiscard]] std::vector<Real> fit(const Matrix& g,
                                      std::span<const Real> f) const;

 private:
  Options options_;
};

}  // namespace rsm
