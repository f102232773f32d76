#include "support/stagewise.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/vector_ops.hpp"

namespace rsm {

StagewisePath stagewise_path(const Matrix& g, std::span<const Real> f,
                             Index num_records,
                             const StagewiseOptions& options) {
  const Index k = g.rows();
  const Index m = g.cols();
  RSM_CHECK(static_cast<Index>(f.size()) == k);
  RSM_CHECK(num_records > 0);
  RSM_CHECK(options.epsilon > 0 && options.steps_per_record > 0);

  std::vector<Real> col_sq(static_cast<std::size_t>(m));
  for (Index j = 0; j < m; ++j) {
    const std::vector<Real> column = g.col(j);
    col_sq[static_cast<std::size_t>(j)] = dot(column, column);
  }

  std::vector<Real> beta(static_cast<std::size_t>(m), Real{0});
  std::vector<Real> residual(f.begin(), f.end());
  std::vector<Real> corr(static_cast<std::size_t>(m));

  // Absolute nudge: epsilon * (projection coefficient of the best column at
  // the start). Scales the path to the data.
  gemv_transposed(g, residual, corr);
  Real max_proj = 0;
  for (Index j = 0; j < m; ++j) {
    if (col_sq[static_cast<std::size_t>(j)] <= 0) continue;
    max_proj = std::max(max_proj,
                        std::abs(corr[static_cast<std::size_t>(j)]) /
                            col_sq[static_cast<std::size_t>(j)]);
  }
  StagewisePath path;
  if (max_proj <= 0) return path;
  const Real nudge = options.epsilon * max_proj;

  for (Index rec = 0; rec < num_records; ++rec) {
    for (Index micro = 0; micro < options.steps_per_record; ++micro) {
      gemv_transposed(g, residual, corr);
      Index best = -1;
      Real best_val = 0;
      for (Index j = 0; j < m; ++j) {
        if (col_sq[static_cast<std::size_t>(j)] <= 0) continue;
        const Real v = std::abs(corr[static_cast<std::size_t>(j)]);
        if (v > best_val) {
          best_val = v;
          best = j;
        }
      }
      if (best < 0 || best_val <= Real{1e-14}) break;
      const Real sign =
          corr[static_cast<std::size_t>(best)] >= 0 ? Real{1} : Real{-1};
      // Don't overshoot the residual's projection on the column.
      const Real proj = std::abs(corr[static_cast<std::size_t>(best)]) /
                        col_sq[static_cast<std::size_t>(best)];
      const Real step = sign * std::min(nudge, proj);
      beta[static_cast<std::size_t>(best)] += step;
      axpy(-step, g.col(best), residual);
    }
    path.coefficients.push_back(beta);
    path.residual_norms.push_back(nrm2(residual));
  }
  return path;
}

}  // namespace rsm
