#include "core/cosamp.hpp"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/omp.hpp"
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

TEST(Cosamp, ExactRecoveryAtTrueSparsity) {
  Rng rng(111);
  const Index k = 100, m = 400, p = 6;
  const Matrix g = monte_carlo_normal(k, m, rng);
  std::vector<Real> alpha(static_cast<std::size_t>(m), 0.0);
  std::set<Index> support;
  while (static_cast<Index>(support.size()) < p)
    support.insert(rng.uniform_index(m));
  for (Index s : support)
    alpha[static_cast<std::size_t>(s)] = rng.uniform() < 0.5 ? -1.0 : 1.0;
  const std::vector<Real> f = synthesize(g, alpha);

  const SolverPath path =
      CosampSolver().fit_at_sparsity(MaterializedSource(g), f, p);
  ASSERT_EQ(path.num_steps(), 1);
  const std::vector<Index> found = path.support(0);
  const std::set<Index> found_set(found.begin(), found.end());
  for (Index s : support) EXPECT_TRUE(found_set.count(s)) << "missing " << s;
  EXPECT_LT(path.residual_norms[0], 1e-8 * nrm2(f));

  const std::vector<Real> dense = path.dense_coefficients(0, m);
  for (Index j = 0; j < m; ++j)
    EXPECT_NEAR(dense[static_cast<std::size_t>(j)],
                alpha[static_cast<std::size_t>(j)], 1e-8);
}

TEST(Cosamp, PathResidualsTrendDownWithSparsity) {
  // Unlike OMP, CoSaMP supports are not nested across sparsity levels, so
  // strict monotonicity is not guaranteed — but the trend must be firmly
  // downward and any uptick small.
  Rng rng(112);
  const Matrix g = monte_carlo_normal(80, 150, rng);
  const std::vector<Real> f = rng.normal_vector(80);
  const SolverPath path = CosampSolver().fit_path(g, f, 10);
  ASSERT_GE(path.num_steps(), 5);
  for (Index t = 1; t < path.num_steps(); ++t)
    EXPECT_LE(path.residual_norms[static_cast<std::size_t>(t)],
              1.05 * path.residual_norms[static_cast<std::size_t>(t - 1)]);
  EXPECT_LT(path.residual_norms.back(), 0.9 * path.residual_norms.front());
}

TEST(Cosamp, SupportSizeMatchesRequestedSparsity) {
  Rng rng(113);
  const Matrix g = monte_carlo_normal(60, 100, rng);
  const std::vector<Real> f = rng.normal_vector(60);
  for (Index s : {1L, 3L, 8L}) {
    const SolverPath path =
        CosampSolver().fit_at_sparsity(MaterializedSource(g), f, s);
    EXPECT_EQ(static_cast<Index>(path.support(0).size()), s);
  }
}

TEST(Cosamp, CanUndoAWrongEarlyPick) {
  // Construct a decoy column highly correlated with the target mixture but
  // absent from the truth. OMP picks it first and keeps it forever; CoSaMP
  // prunes it once the true columns explain the data.
  Rng rng(114);
  const Index k = 120, m = 60;
  Matrix g = monte_carlo_normal(k, m, rng);
  std::vector<Real> alpha(static_cast<std::size_t>(m), 0.0);
  alpha[10] = 1.0;
  alpha[20] = 1.0;
  const std::vector<Real> f_clean = synthesize(g, alpha);
  // Decoy: column 0 := normalized (g10 + g20) + small noise.
  std::vector<Real> decoy = f_clean;
  for (Real& v : decoy) v /= nrm2(f_clean) / std::sqrt(static_cast<Real>(k));
  for (Real& v : decoy) v += 0.15 * rng.normal();
  g.set_col(0, decoy);

  const SolverPath omp = OmpSolver().fit_path(g, f_clean, 2);
  EXPECT_EQ(omp.selection_order[0], 0);  // OMP falls for the decoy...
  const std::set<Index> omp_sup(omp.selection_order.begin(),
                                omp.selection_order.end());
  EXPECT_TRUE(omp_sup.count(0));  // ...and cannot remove it at s=2

  const SolverPath cosamp =
      CosampSolver().fit_at_sparsity(MaterializedSource(g), f_clean, 2);
  const std::vector<Index> sup = cosamp.support(0);
  EXPECT_EQ(sup, (std::vector<Index>{10, 20}));
  EXPECT_LT(cosamp.residual_norms[0], 1e-8);
}

TEST(Cosamp, MatchesOmpOnEasyProblems) {
  // On well-conditioned designs at the true sparsity both land on the same
  // support.
  Rng rng(115);
  const Index k = 90, m = 200, p = 5;
  const Matrix g = monte_carlo_normal(k, m, rng);
  std::vector<Real> alpha(static_cast<std::size_t>(m), 0.0);
  for (Index i = 0; i < p; ++i)
    alpha[static_cast<std::size_t>(rng.uniform_index(m))] = 2.0;
  const std::vector<Real> f = synthesize(g, alpha);
  const SolverPath omp = OmpSolver().fit_path(g, f, p);
  const SolverPath cosamp =
      CosampSolver().fit_at_sparsity(MaterializedSource(g), f, p);
  const std::set<Index> omp_sup(omp.selection_order.begin(),
                                omp.selection_order.end());
  const std::vector<Index> cos_support = cosamp.support(0);
  const std::set<Index> cos_sup(cos_support.begin(), cos_support.end());
  EXPECT_EQ(omp_sup, cos_sup);
}

TEST(Cosamp, SparsityCappedByHalfSamples) {
  Rng rng(116);
  const Matrix g = monte_carlo_normal(20, 50, rng);
  const std::vector<Real> f = rng.normal_vector(20);
  const SolverPath path =
      CosampSolver().fit_at_sparsity(MaterializedSource(g), f, 40);
  EXPECT_LE(path.support(0).size(), 10u);  // k/2
}

TEST(Cosamp, ZeroTargetGracefullyEmpty) {
  Rng rng(117);
  const Matrix g = monte_carlo_normal(30, 20, rng);
  const std::vector<Real> f(30, 0.0);
  const SolverPath path =
      CosampSolver().fit_at_sparsity(MaterializedSource(g), f, 3);
  EXPECT_LT(path.residual_norms[0], 1e-12);
}

}  // namespace
}  // namespace rsm
