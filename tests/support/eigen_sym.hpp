// Symmetric eigendecomposition by the cyclic Jacobi method.
//
// Test support: the Golub-Welsch step of the Gauss-Hermite reference rule
// (support/quadrature.hpp) diagonalizes a Jacobi matrix with this routine.
// Jacobi is O(n^3) per sweep but unconditionally robust and delivers
// eigenvectors orthogonal to machine precision.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"
#include "util/common.hpp"

namespace rsm {

struct SymmetricEigen {
  /// Eigenvalues in descending order.
  std::vector<Real> values;
  /// Column j of `vectors` is the unit eigenvector for values[j].
  Matrix vectors;
};

/// Full eigendecomposition of a symmetric matrix (only the upper triangle is
/// read). `max_sweeps` bounds the cyclic Jacobi iteration; convergence to
/// ~1e-14 off-diagonal mass typically takes 6-10 sweeps.
[[nodiscard]] SymmetricEigen eigen_symmetric(const Matrix& a,
                                             int max_sweeps = 50);

}  // namespace rsm
