#include "support/stagewise.hpp"

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "core/lar.hpp"
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

TEST(Stagewise, ResidualDecreases) {
  Rng rng(701);
  const Matrix g = monte_carlo_normal(50, 60, rng);
  const std::vector<Real> f = rng.normal_vector(50);
  const StagewisePath path = stagewise_path(g, f, 10);
  ASSERT_GT(path.num_records(), 1);
  for (std::size_t t = 1; t < path.residual_norms.size(); ++t)
    EXPECT_LE(path.residual_norms[t], path.residual_norms[t - 1] + 1e-12);
}

TEST(Stagewise, FindsDominantColumnFirst) {
  Rng rng(702);
  const Matrix g = monte_carlo_normal(100, 40, rng);
  std::vector<Real> alpha(40, 0.0);
  alpha[23] = 5.0;
  const std::vector<Real> f = synthesize(g, alpha);
  const StagewisePath path = stagewise_path(g, f, 2);
  ASSERT_GT(path.num_records(), 0);
  EXPECT_NE(path.coefficients[0][23], 0.0);
}

TEST(Stagewise, ConvergesToSparseTruth) {
  Rng rng(703);
  const Index k = 80, m = 150;
  const Matrix g = monte_carlo_normal(k, m, rng);
  std::vector<Real> alpha(static_cast<std::size_t>(m), 0.0);
  alpha[10] = 1.5;
  alpha[99] = -1.0;
  const std::vector<Real> f = synthesize(g, alpha);
  StagewiseOptions opt;
  opt.epsilon = 0.02;
  opt.steps_per_record = 200;
  const StagewisePath path = stagewise_path(g, f, 10, opt);
  const std::vector<Real>& dense = path.coefficients.back();
  EXPECT_NEAR(dense[10], 1.5, 0.1);
  EXPECT_NEAR(dense[99], -1.0, 0.1);
  EXPECT_LT(path.residual_norms.back(), 0.1 * nrm2(f));
}

/// First LAR step at which some coefficient changes sign against the step
/// before (num_steps() if none does).
Index first_sign_change(const SolverPath& lar, Index num_columns) {
  for (Index t = 1; t < lar.num_steps(); ++t) {
    const std::vector<Real> before = lar.dense_coefficients(t - 1, num_columns);
    const std::vector<Real> after = lar.dense_coefficients(t, num_columns);
    for (std::size_t j = 0; j < before.size(); ++j)
      if (before[j] != 0 && before[j] * after[j] <= 0) return t;
  }
  return lar.num_steps();
}

TEST(Stagewise, SmallEpsilonApproachesLarPath) {
  // Efron et al.: as epsilon -> 0, stagewise traces the LAR path. Stagewise
  // only ever moves a coefficient the way its correlation points, so the
  // two agree only until LAR turns a coefficient through zero; steps from
  // there on are not compared. The equivalence holds for unit-norm columns
  // (stagewise ranks raw correlations, LAR normalized ones), so G is
  // normalized first. Coefficients are compared at matched residual norms,
  // for several designs and two points along the path.
  const Index k = 60, m = 15;
  StagewiseOptions opt;
  opt.epsilon = 0.002;
  opt.steps_per_record = 25;
  int compared = 0;
  for (const std::uint64_t seed : {704u, 714u, 724u, 734u, 744u}) {
    Rng rng(seed);
    Matrix g = monte_carlo_normal(k, m, rng);
    const std::vector<Real> f = rng.normal_vector(k);
    for (Index j = 0; j < m; ++j) {
      std::vector<Real> column = g.col(j);
      scale(Real{1} / nrm2(column), column);
      g.set_col(j, column);
    }

    const SolverPath lar = LarSolver().fit_path(g, f, 6);
    ASSERT_GE(lar.num_steps(), 5) << "seed " << seed;
    const Index cone_end = first_sign_change(lar, m);
    const StagewisePath stage = stagewise_path(g, f, 400, opt);
    for (const Index step : {Index{2}, Index{4}}) {
      if (step >= cone_end) continue;
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step);
      const Real target_residual =
          lar.residual_norms[static_cast<std::size_t>(step)];
      // The stagewise record closest in residual norm.
      std::size_t closest = 0;
      for (std::size_t r = 1; r < stage.residual_norms.size(); ++r)
        if (std::abs(stage.residual_norms[r] - target_residual) <
            std::abs(stage.residual_norms[closest] - target_residual))
          closest = r;
      const std::vector<Real>& stage_dense = stage.coefficients[closest];
      const std::vector<Real> lar_dense = lar.dense_coefficients(step, m);
      for (Index j = 0; j < m; ++j)
        EXPECT_NEAR(stage_dense[static_cast<std::size_t>(j)],
                    lar_dense[static_cast<std::size_t>(j)], 0.03)
            << "j=" << j;
      ++compared;
    }
  }
  // Most (seed, step) pairs lie inside the cone; the check must not pass
  // by comparing nothing.
  EXPECT_GE(compared, 6);
}

TEST(Stagewise, ZeroTargetEmptyPath) {
  Rng rng(705);
  const Matrix g = monte_carlo_normal(20, 10, rng);
  const std::vector<Real> f(20, 0.0);
  const StagewisePath path = stagewise_path(g, f, 5);
  EXPECT_EQ(path.num_records(), 0);
}

TEST(Stagewise, InvalidOptionsThrow) {
  Rng rng(706);
  const Matrix g = monte_carlo_normal(10, 5, rng);
  const std::vector<Real> f = rng.normal_vector(10);
  StagewiseOptions opt;
  opt.epsilon = 0;
  EXPECT_THROW((void)stagewise_path(g, f, 3, opt), Error);
}

}  // namespace
}  // namespace rsm
