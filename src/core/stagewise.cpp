#include "core/stagewise.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/vector_ops.hpp"

namespace rsm {

SolverPath StagewiseSolver::fit_path(const ColumnSource& g,
                                     std::span<const Real> f,
                                     Index max_steps) const {
  const Index k = g.rows();
  const Index m = g.num_columns();
  RSM_CHECK(static_cast<Index>(f.size()) == k);
  RSM_CHECK(max_steps > 0);
  RSM_CHECK(options_.epsilon > 0 && options_.steps_per_record > 0);

  std::vector<Real> column(static_cast<std::size_t>(k));
  std::vector<Real> col_sq(static_cast<std::size_t>(m));
  for (Index j = 0; j < m; ++j) {
    g.column(j, column);
    Real s = 0;
    for (Real v : column) s += v * v;
    col_sq[static_cast<std::size_t>(j)] = s;
  }

  std::vector<Real> beta(static_cast<std::size_t>(m), Real{0});
  std::vector<Real> residual(f.begin(), f.end());
  std::vector<Real> corr(static_cast<std::size_t>(m));

  // Absolute nudge: epsilon * (projection coefficient of the best column at
  // the start). Scales the path to the data.
  g.correlate(residual, corr);
  Real max_proj = 0;
  for (Index j = 0; j < m; ++j) {
    if (col_sq[static_cast<std::size_t>(j)] <= 0) continue;
    max_proj = std::max(max_proj,
                        std::abs(corr[static_cast<std::size_t>(j)]) /
                            col_sq[static_cast<std::size_t>(j)]);
  }
  SolverPath path;
  if (max_proj <= 0) return path;
  const Real nudge = options_.epsilon * max_proj;

  for (Index rec = 0; rec < max_steps; ++rec) {
    for (Index micro = 0; micro < options_.steps_per_record; ++micro) {
      g.correlate(residual, corr);
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
      g.column(best, column);
      for (Index r = 0; r < k; ++r)
        residual[static_cast<std::size_t>(r)] -=
            step * column[static_cast<std::size_t>(r)];
    }

    std::vector<Index> active;
    std::vector<Real> coef;
    for (Index j = 0; j < m; ++j) {
      if (beta[static_cast<std::size_t>(j)] != 0) {
        active.push_back(j);
        coef.push_back(beta[static_cast<std::size_t>(j)]);
      }
    }
    path.active_sets.push_back(active);
    path.coefficients.push_back(std::move(coef));
    path.selection_order.push_back(active.empty() ? -1 : active.back());
    path.residual_norms.push_back(nrm2(residual));
  }
  return path;
}

}  // namespace rsm
