#include "core/lasso_cd.hpp"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/lar.hpp"
#include "linalg/blas.hpp"
#include "linalg/vector_ops.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"

namespace rsm {
namespace {

std::vector<Real> synthesize(const Matrix& g, const std::vector<Real>& alpha) {
  std::vector<Real> y(static_cast<std::size_t>(g.rows()), 0.0);
  for (Index m = 0; m < g.cols(); ++m) {
    if (alpha[static_cast<std::size_t>(m)] == 0.0) continue;
    axpy(alpha[static_cast<std::size_t>(m)], g.col(m), y);
  }
  return y;
}

TEST(LassoCd, LargePenaltyZeroesEverything) {
  Rng rng(601);
  const Matrix g = monte_carlo_normal(40, 20, rng);
  const std::vector<Real> f = rng.normal_vector(40);
  const std::vector<Real> beta =
      LassoCdSolver().fit_at(MaterializedSource(g), f, 1e6);
  for (Real b : beta) EXPECT_EQ(b, 0.0);
}

TEST(LassoCd, ZeroPenaltyReachesLeastSquaresFit) {
  // mu = 0: plain coordinate descent on the quadratic, converging to an LS
  // solution (residual orthogonal to every column).
  Rng rng(602);
  const Matrix g = monte_carlo_normal(60, 10, rng);
  const std::vector<Real> f = rng.normal_vector(60);
  const std::vector<Real> beta =
      LassoCdSolver().fit_at(MaterializedSource(g), f, 0.0);
  std::vector<Real> residual = f;
  for (Index j = 0; j < 10; ++j)
    axpy(-beta[static_cast<std::size_t>(j)], g.col(j), residual);
  std::vector<Real> corr(10);
  gemv_transposed(g, residual, corr);
  EXPECT_LT(max_abs(corr), 1e-5);
}

TEST(LassoCd, KktConditionsHoldAtSolution) {
  // LASSO optimality: |(1/K) G_j' r| <= mu, with equality (and matching
  // sign) on the active set.
  Rng rng(603);
  const Index k = 80, m = 30;
  const Matrix g = monte_carlo_normal(k, m, rng);
  const std::vector<Real> f = rng.normal_vector(k);
  const Real mu = 0.1;
  const std::vector<Real> beta =
      LassoCdSolver().fit_at(MaterializedSource(g), f, mu);
  std::vector<Real> residual = f;
  for (Index j = 0; j < m; ++j)
    axpy(-beta[static_cast<std::size_t>(j)], g.col(j), residual);
  std::vector<Real> corr(static_cast<std::size_t>(m));
  gemv_transposed(g, residual, corr);
  for (Index j = 0; j < m; ++j) {
    const Real c = corr[static_cast<std::size_t>(j)] / static_cast<Real>(k);
    const Real b = beta[static_cast<std::size_t>(j)];
    if (b != 0) {
      EXPECT_NEAR(c, mu * (b > 0 ? 1.0 : -1.0), 1e-6) << "active j=" << j;
    } else {
      EXPECT_LE(std::abs(c), mu + 1e-6) << "inactive j=" << j;
    }
  }
}

TEST(LassoCd, RecoversSparseSignal) {
  Rng rng(604);
  const Index k = 100, m = 300;
  const Matrix g = monte_carlo_normal(k, m, rng);
  std::vector<Real> alpha(static_cast<std::size_t>(m), 0.0);
  const std::vector<Index> support{5, 50, 150, 250};
  for (Index s : support) alpha[static_cast<std::size_t>(s)] = 2.0;
  std::vector<Real> f = synthesize(g, alpha);
  for (Real& v : f) v += 0.01 * rng.normal();

  const SolverPath path = LassoCdSolver().fit_path(g, f, 40);
  ASSERT_GT(path.num_steps(), 0);
  // Somewhere on the path the support is exactly recovered.
  bool exact = false;
  for (Index t = 0; t < path.num_steps(); ++t) {
    const std::vector<Index> sup = path.support(t);
    if (sup.size() != support.size()) continue;
    exact = std::equal(sup.begin(), sup.end(), support.begin());
    if (exact) break;
  }
  EXPECT_TRUE(exact);
}

TEST(LassoCd, PathActiveSetGrowsWithDecreasingPenalty) {
  Rng rng(605);
  const Matrix g = monte_carlo_normal(50, 80, rng);
  const std::vector<Real> f = rng.normal_vector(50);
  const SolverPath path = LassoCdSolver().fit_path(g, f, 30);
  // Non-strictly monotone in general, but first << last.
  ASSERT_GE(path.num_steps(), 10);
  EXPECT_LT(path.support(0).size(), path.support(path.num_steps() - 1).size());
  // And residuals shrink.
  EXPECT_LT(path.residual_norms.back(), path.residual_norms.front());
}

TEST(LassoCd, AgreesWithLassoLarAtMatchedL1Norm) {
  // Both solve the same convex program; compare solutions with the same
  // ||beta||_1 (parameterizations differ). Interpolate the CD path to the
  // LAR breakpoint's L1 norm and compare fits by residual.
  Rng rng(606);
  const Index k = 60, m = 25;
  const Matrix g = monte_carlo_normal(k, m, rng);
  const std::vector<Real> f = rng.normal_vector(k);

  LarSolver::Options lar_opt;
  lar_opt.lasso = true;
  const SolverPath lar = LarSolver(lar_opt).fit_path(g, f, 8);
  ASSERT_GE(lar.num_steps(), 5);
  const Index t = 4;
  const std::vector<Real> lar_dense = lar.dense_coefficients(t, m);

  // L1 norm at the breakpoint.
  Real l1 = 0;
  for (Real b : lar_dense) l1 += std::abs(b);

  // Scan CD over mu until its solution has (approximately) that L1 norm.
  const LassoCdSolver cd;
  Real best_gap = 1e9;
  std::vector<Real> best;
  for (Real mu = 1.0; mu > 1e-4; mu *= 0.97) {
    const std::vector<Real> beta = cd.fit_at(MaterializedSource(g), f, mu);
    Real norm = 0;
    for (Real b : beta) norm += std::abs(b);
    if (std::abs(norm - l1) < best_gap) {
      best_gap = std::abs(norm - l1);
      best = beta;
    }
  }
  ASSERT_FALSE(best.empty());
  for (Index j = 0; j < m; ++j)
    EXPECT_NEAR(best[static_cast<std::size_t>(j)],
                lar_dense[static_cast<std::size_t>(j)], 0.05)
        << "j=" << j;
}

}  // namespace
}  // namespace rsm
