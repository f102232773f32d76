// Gauss-Hermite quadrature for expectations under the standard normal.
//
// Test support: the reference the Hermite tests check the orthonormality of
// eq. (2) and the analytic triple products against (an n-point rule
// integrates polynomials up to degree 2n-1 exactly).
#pragma once

#include <functional>
#include <vector>

#include "util/common.hpp"

namespace rsm {

struct QuadratureRule {
  std::vector<Real> nodes;    // abscissae x_i
  std::vector<Real> weights;  // weights w_i summing to 1
};

/// n-point Gauss-Hermite rule in "probabilists'" normalization:
/// sum_i w_i f(x_i) ~= E[f(X)], X ~ N(0,1). Nodes and weights by
/// Golub-Welsch; exact for polynomials of degree <= 2n-1.
[[nodiscard]] QuadratureRule gauss_hermite(int num_points);

/// E[f(X)] for X ~ N(0,1) using an n-point rule.
[[nodiscard]] Real normal_expectation(const std::function<Real(Real)>& f,
                                      int num_points = 40);

/// E[f(X1, X2)] for independent standard normals via a tensor rule.
[[nodiscard]] Real normal_expectation_2d(
    const std::function<Real(Real, Real)>& f, int num_points = 40);

}  // namespace rsm
