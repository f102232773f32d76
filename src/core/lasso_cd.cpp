#include "core/lasso_cd.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/vector_ops.hpp"

namespace rsm {
namespace {

Real soft_threshold(Real z, Real gamma) {
  if (z > gamma) return z - gamma;
  if (z < -gamma) return z + gamma;
  return 0;
}

/// ||G_j||^2 / K for every column j.
std::vector<Real> column_sq_over_k(const ColumnSource& g) {
  const Index k = g.rows();
  std::vector<Real> column(static_cast<std::size_t>(k));
  std::vector<Real> col_sq(static_cast<std::size_t>(g.num_columns()));
  for (Index j = 0; j < g.num_columns(); ++j) {
    g.column(j, column);
    Real s = 0;
    for (Real v : column) s += v * v;
    col_sq[static_cast<std::size_t>(j)] = s / static_cast<Real>(k);
  }
  return col_sq;
}

/// Cyclic coordinate descent at one penalty, updating `beta` in place.
/// `residual` is maintained as f - G beta. `col_sq` holds ||G_j||^2 / K.
void descend(const ColumnSource& g, Real mu, std::span<const Real> col_sq,
             std::vector<Real>& beta, std::vector<Real>& residual,
             Real tolerance, int max_sweeps) {
  const Index k = g.rows();
  const Index m = g.num_columns();
  const Real inv_k = Real{1} / static_cast<Real>(k);
  std::vector<Real> column(static_cast<std::size_t>(k));

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    Real max_delta = 0, max_beta = 0;
    for (Index j = 0; j < m; ++j) {
      const Real sq = col_sq[static_cast<std::size_t>(j)];
      if (sq <= 0) continue;
      // Partial residual correlation: z = (1/K) G_j'(r + G_j beta_j).
      g.column(j, column);
      Real corr = 0;
      for (Index r = 0; r < k; ++r)
        corr += column[static_cast<std::size_t>(r)] *
                residual[static_cast<std::size_t>(r)];
      corr *= inv_k;
      const Real old = beta[static_cast<std::size_t>(j)];
      const Real z = corr + sq * old;
      const Real updated = soft_threshold(z, mu) / sq;
      const Real delta = updated - old;
      if (delta != 0) {
        beta[static_cast<std::size_t>(j)] = updated;
        for (Index r = 0; r < k; ++r)
          residual[static_cast<std::size_t>(r)] -=
              delta * column[static_cast<std::size_t>(r)];
      }
      max_delta = std::max(max_delta, std::abs(delta));
      max_beta = std::max(max_beta, std::abs(updated));
    }
    if (max_delta <= tolerance * std::max(max_beta, Real{1e-300})) break;
  }
}

}  // namespace

SolverPath LassoCdSolver::fit_path(const ColumnSource& g,
                                   std::span<const Real> f,
                                   Index max_steps) const {
  const Index k = g.rows();
  const Index m = g.num_columns();
  RSM_CHECK(static_cast<Index>(f.size()) == k);
  RSM_CHECK(max_steps > 0);

  const std::vector<Real> col_sq = column_sq_over_k(g);

  // mu_max: smallest penalty that zeroes everything = max |G'f| / K.
  std::vector<Real> corr(static_cast<std::size_t>(m));
  g.correlate(f, corr);
  Real mu_max = 0;
  for (Real c : corr) mu_max = std::max(mu_max, std::abs(c));
  mu_max /= static_cast<Real>(k);

  SolverPath path;
  if (mu_max <= 0) return path;

  std::vector<Real> beta(static_cast<std::size_t>(m), Real{0});
  std::vector<Real> residual(f.begin(), f.end());

  Real mu = mu_max * options_.grid_ratio;
  for (Index t = 0; t < max_steps; ++t) {
    descend(g, mu, col_sq, beta, residual, options_.tolerance,
            options_.max_sweeps_per_mu);

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
    mu *= options_.grid_ratio;
  }
  return path;
}

std::vector<Real> LassoCdSolver::fit_at(const ColumnSource& g,
                                        std::span<const Real> f,
                                        Real mu) const {
  RSM_CHECK(static_cast<Index>(f.size()) == g.rows());
  RSM_CHECK(mu >= 0);
  std::vector<Real> beta(static_cast<std::size_t>(g.num_columns()), Real{0});
  std::vector<Real> residual(f.begin(), f.end());
  descend(g, mu, column_sq_over_k(g), beta, residual, options_.tolerance,
          options_.max_sweeps_per_mu);
  return beta;
}

}  // namespace rsm
