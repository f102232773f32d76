#include "core/lar.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "linalg/qr.hpp"
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

TEST(Lar, FirstSelectionIsMostCorrelatedColumn) {
  Rng rng(301);
  Matrix g = monte_carlo_normal(100, 30, rng);
  std::vector<Real> alpha(30, 0.0);
  alpha[9] = 4.0;
  const std::vector<Real> f = synthesize(g, alpha);
  const SolverPath path = LarSolver().fit_path(g, f, 3);
  ASSERT_GE(path.num_steps(), 1);
  EXPECT_EQ(path.support(0)[0], 9);
}

TEST(Lar, FullPathReachesLeastSquares) {
  // When the path runs to completion (M < K), the final coefficients equal
  // the full least-squares solution — the defining endpoint of LAR.
  Rng rng(302);
  const Index k = 60, m = 8;
  const Matrix g = monte_carlo_normal(k, m, rng);
  const std::vector<Real> f = rng.normal_vector(k);
  const SolverPath path = LarSolver().fit_path(g, f, m);
  const std::vector<Real> dense =
      path.dense_coefficients(path.num_steps() - 1, m);
  const std::vector<Real> ls = QrFactorization(g).solve(f);
  for (Index j = 0; j < m; ++j)
    EXPECT_NEAR(dense[static_cast<std::size_t>(j)],
                ls[static_cast<std::size_t>(j)], 1e-8);
}

TEST(Lar, EquiangularProperty) {
  // Along the path, all active columns keep equal absolute correlation with
  // the residual, strictly larger than any inactive column's.
  Rng rng(303);
  const Index k = 80, m = 25;
  const Matrix g = monte_carlo_normal(k, m, rng);
  // Normalize columns so correlations are directly comparable.
  Matrix x = g;
  for (Index j = 0; j < m; ++j) {
    std::vector<Real> c = x.col(j);
    const Real n = nrm2(c);
    for (Real& v : c) v /= n;
    x.set_col(j, c);
  }
  const std::vector<Real> f = rng.normal_vector(k);
  const SolverPath path = LarSolver().fit_path(x, f, 6);
  ASSERT_GE(path.num_steps(), 4);

  for (Index t = 0; t < 4; ++t) {
    const std::vector<Index> active = path.support(t);
    const std::vector<Real>& coef =
        path.coefficients[static_cast<std::size_t>(t)];
    std::vector<Real> residual(f.begin(), f.end());
    for (std::size_t s = 0; s < active.size(); ++s)
      axpy(-coef[s], x.col(active[s]), residual);
    std::vector<Real> corr(static_cast<std::size_t>(m));
    gemv_transposed(x, residual, corr);

    Real active_corr = -1;
    for (Index j : active) {
      const Real c = std::abs(corr[static_cast<std::size_t>(j)]);
      if (active_corr < 0) {
        active_corr = c;
      } else {
        EXPECT_NEAR(c, active_corr, 1e-8 * (1 + active_corr))
            << "step " << t << " col " << j;
      }
    }
    const std::set<Index> act(active.begin(), active.end());
    for (Index j = 0; j < m; ++j) {
      if (act.count(j)) continue;
      EXPECT_LE(std::abs(corr[static_cast<std::size_t>(j)]),
                active_corr + 1e-8)
          << "step " << t << " inactive col " << j;
    }
  }
}

TEST(Lar, RecoversSparseSignal) {
  Rng rng(304);
  const Index k = 80, m = 400;
  const Matrix g = monte_carlo_normal(k, m, rng);
  std::vector<Real> alpha(static_cast<std::size_t>(m), 0.0);
  const std::vector<Index> support{11, 57, 203, 333};
  const Real coeffs[] = {3.0, -2.0, 1.5, -1.0};
  for (std::size_t i = 0; i < support.size(); ++i)
    alpha[static_cast<std::size_t>(support[i])] = coeffs[i];
  const std::vector<Real> f = synthesize(g, alpha);
  const SolverPath path = LarSolver().fit_path(g, f, 8);
  const std::vector<Index> final_support = path.support(path.num_steps() - 1);
  const std::set<Index> found(final_support.begin(), final_support.end());
  for (Index s : support) EXPECT_TRUE(found.count(s)) << "missing " << s;
  // Residual after the true support is absorbed is near zero.
  EXPECT_LT(path.residual_norms.back(), 1e-6 * nrm2(f));
}

TEST(Lar, ActiveSetGrowsByOnePerStepWithoutLasso) {
  Rng rng(305);
  const Matrix g = monte_carlo_normal(50, 100, rng);
  const std::vector<Real> f = rng.normal_vector(50);
  const SolverPath path = LarSolver().fit_path(g, f, 12);
  for (Index t = 0; t < path.num_steps(); ++t)
    EXPECT_EQ(static_cast<Index>(path.support(t).size()), t + 1);
}

TEST(Lar, ResidualNormsDecrease) {
  Rng rng(306);
  const Matrix g = monte_carlo_normal(60, 150, rng);
  const std::vector<Real> f = rng.normal_vector(60);
  const SolverPath path = LarSolver().fit_path(g, f, 15);
  for (std::size_t t = 1; t < path.residual_norms.size(); ++t)
    EXPECT_LT(path.residual_norms[t], path.residual_norms[t - 1] + 1e-12);
}

TEST(Lar, CoefficientsShrunkRelativeToLsOnActiveSet) {
  // Before the final step, LAR coefficients are strictly between 0 and the
  // LS fit on the same support (the L1 shrinkage property); check the first
  // selected column's coefficient magnitude is below its LS value.
  Rng rng(307);
  const Index k = 100, m = 20;
  const Matrix g = monte_carlo_normal(k, m, rng);
  const std::vector<Real> f = rng.normal_vector(k);
  const SolverPath path = LarSolver().fit_path(g, f, 5);
  ASSERT_GE(path.num_steps(), 3);
  const Index t = 2;
  const std::vector<Index> sup = path.support(t);
  Matrix g_sup(k, static_cast<Index>(sup.size()));
  for (std::size_t j = 0; j < sup.size(); ++j)
    g_sup.set_col(static_cast<Index>(j), g.col(sup[j]));
  const std::vector<Real> ls = QrFactorization(g_sup).solve(f);
  Real lar_l1 = 0, ls_l1 = 0;
  for (std::size_t j = 0; j < sup.size(); ++j) {
    lar_l1 += std::abs(path.coefficients[static_cast<std::size_t>(t)][j]);
    ls_l1 += std::abs(ls[j]);
  }
  EXPECT_LT(lar_l1, ls_l1);
}

TEST(Lar, HandlesDuplicateColumns) {
  Rng rng(310);
  const Index k = 40;
  Matrix g(k, 4);
  const std::vector<Real> c = rng.normal_vector(k);
  g.set_col(0, c);
  g.set_col(1, c);  // duplicate
  g.set_col(2, rng.normal_vector(k));
  g.set_col(3, rng.normal_vector(k));
  const std::vector<Real> f = rng.normal_vector(k);
  const SolverPath path = LarSolver().fit_path(g, f, 4);
  EXPECT_LE(path.num_steps(), 3);
  // No support contains both duplicates.
  for (Index t = 0; t < path.num_steps(); ++t) {
    const std::vector<Index> sup = path.support(t);
    const std::set<Index> s(sup.begin(), sup.end());
    EXPECT_FALSE(s.count(0) && s.count(1));
  }
}

TEST(Lar, ZeroTargetGivesEmptyPath) {
  Rng rng(311);
  const Matrix g = monte_carlo_normal(20, 10, rng);
  const std::vector<Real> f(20, 0.0);
  const SolverPath path = LarSolver().fit_path(g, f, 5);
  EXPECT_EQ(path.num_steps(), 0);
}

}  // namespace
}  // namespace rsm
