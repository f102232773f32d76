#include "support/quadrature.hpp"

#include <cmath>

#include "basis/hermite.hpp"
#include "linalg/matrix.hpp"
#include "support/eigen_sym.hpp"

namespace rsm {

QuadratureRule gauss_hermite(int num_points) {
  RSM_CHECK(num_points >= 1);
  const Index n = num_points;

  // Golub-Welsch: nodes are the eigenvalues of the Jacobi matrix of the
  // orthonormal probabilists' Hermite family (zero diagonal, off-diagonal
  // b_k = sqrt(k)); the weight of node i is mu_0 * (first eigenvector
  // component)^2 with mu_0 = 1 for a probability measure. This is robust at
  // any order, unlike Newton iteration from asymptotic initial guesses.
  Matrix jacobi(n, n);
  for (Index k = 1; k < n; ++k) {
    const Real b = std::sqrt(static_cast<Real>(k));
    jacobi(k - 1, k) = b;
    jacobi(k, k - 1) = b;
  }
  const SymmetricEigen eig = eigen_symmetric(jacobi);

  QuadratureRule rule;
  rule.nodes.resize(static_cast<std::size_t>(n));
  rule.weights.resize(static_cast<std::size_t>(n));
  // eigen_symmetric sorts descending; emit ascending nodes.
  for (Index i = 0; i < n; ++i) {
    const Index src = n - 1 - i;
    rule.nodes[static_cast<std::size_t>(i)] =
        eig.values[static_cast<std::size_t>(src)];
    const Real v0 = eig.vectors(0, src);
    rule.weights[static_cast<std::size_t>(i)] = v0 * v0;
  }
  return rule;
}

Real normal_expectation(const std::function<Real(Real)>& f, int num_points) {
  const QuadratureRule rule = gauss_hermite(num_points);
  Real s = 0;
  for (std::size_t i = 0; i < rule.nodes.size(); ++i)
    s += rule.weights[i] * f(rule.nodes[i]);
  return s;
}

Real normal_expectation_2d(const std::function<Real(Real, Real)>& f,
                           int num_points) {
  const QuadratureRule rule = gauss_hermite(num_points);
  Real s = 0;
  for (std::size_t i = 0; i < rule.nodes.size(); ++i)
    for (std::size_t j = 0; j < rule.nodes.size(); ++j)
      s += rule.weights[i] * rule.weights[j] * f(rule.nodes[i], rule.nodes[j]);
  return s;
}

}  // namespace rsm
