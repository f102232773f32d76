#include "support/eigen_sym.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace rsm {

SymmetricEigen eigen_symmetric(const Matrix& a_in, int max_sweeps) {
  RSM_CHECK_MSG(a_in.rows() == a_in.cols(), "eigen_symmetric needs square");
  const Index n = a_in.rows();
  Matrix a = a_in;
  // Symmetrize from the upper triangle so callers may pass either half.
  for (Index i = 0; i < n; ++i)
    for (Index j = i + 1; j < n; ++j) a(j, i) = a(i, j);

  Matrix v = Matrix::identity(n);

  const auto off_diagonal_norm = [&] {
    Real s = 0;
    for (Index i = 0; i < n; ++i)
      for (Index j = i + 1; j < n; ++j) s += a(i, j) * a(i, j);
    return std::sqrt(Real{2} * s);
  };

  const Real scale = std::max(a.frobenius_norm(), Real{1e-300});
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_diagonal_norm() <= Real{1e-14} * scale) break;
    for (Index p = 0; p < n - 1; ++p) {
      for (Index q = p + 1; q < n; ++q) {
        const Real apq = a(p, q);
        if (std::abs(apq) <= Real{1e-300}) continue;
        // Classic Jacobi rotation annihilating a(p,q).
        const Real theta = (a(q, q) - a(p, p)) / (2 * apq);
        const Real t = (theta >= 0 ? Real{1} : Real{-1}) /
                       (std::abs(theta) + std::sqrt(theta * theta + 1));
        const Real c = Real{1} / std::sqrt(t * t + 1);
        const Real s = t * c;

        for (Index k = 0; k < n; ++k) {
          const Real akp = a(k, p), akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (Index k = 0; k < n; ++k) {
          const Real apk = a(p, k), aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (Index k = 0; k < n; ++k) {
          const Real vkp = v(k, p), vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort eigenpairs by descending eigenvalue.
  std::vector<Index> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), Index{0});
  std::sort(order.begin(), order.end(),
            [&](Index i, Index j) { return a(i, i) > a(j, j); });

  SymmetricEigen out;
  out.values.resize(static_cast<std::size_t>(n));
  out.vectors = Matrix(n, n);
  for (Index j = 0; j < n; ++j) {
    const Index src = order[static_cast<std::size_t>(j)];
    out.values[static_cast<std::size_t>(j)] = a(src, src);
    for (Index i = 0; i < n; ++i) out.vectors(i, j) = v(i, src);
  }
  return out;
}

}  // namespace rsm
