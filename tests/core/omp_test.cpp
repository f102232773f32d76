#include "core/omp.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <variant>

#include <gtest/gtest.h>

#include "linalg/qr.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/telemetry.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"

namespace rsm {
namespace {

/// y = G * alpha for a dense coefficient vector.
std::vector<Real> synthesize(const Matrix& g, const std::vector<Real>& alpha) {
  std::vector<Real> y(static_cast<std::size_t>(g.rows()), 0.0);
  for (Index m = 0; m < g.cols(); ++m) {
    if (alpha[static_cast<std::size_t>(m)] == 0.0) continue;
    axpy(alpha[static_cast<std::size_t>(m)], g.col(m), y);
  }
  return y;
}

TEST(Omp, RecoversExactSparseSolutionNoiseless) {
  // K=60 samples, M=200 columns, P=5 non-zeros: OMP must find the exact
  // support and coefficients (residual -> 0).
  Rng rng(101);
  const Index k = 60, m = 200;
  const Matrix g = monte_carlo_normal(k, m, rng);
  std::vector<Real> alpha(static_cast<std::size_t>(m), 0.0);
  const std::vector<Index> support{3, 17, 42, 99, 150};
  const std::vector<Real> coeffs{2.0, -1.5, 1.0, 0.7, -0.5};
  for (std::size_t i = 0; i < support.size(); ++i)
    alpha[static_cast<std::size_t>(support[i])] = coeffs[i];
  const std::vector<Real> f = synthesize(g, alpha);

  const SolverPath path = OmpSolver().fit_path(g, f, 5);
  ASSERT_EQ(path.num_steps(), 5);
  const std::set<Index> found(path.selection_order.begin(),
                              path.selection_order.end());
  for (Index s : support) EXPECT_TRUE(found.count(s)) << "missing column " << s;

  const std::vector<Real> dense = path.dense_coefficients(4, m);
  for (Index j = 0; j < m; ++j)
    EXPECT_NEAR(dense[static_cast<std::size_t>(j)],
                alpha[static_cast<std::size_t>(j)], 1e-9);
  EXPECT_LT(path.residual_norms.back(), 1e-9);
}

TEST(Omp, SelectsLargestCoefficientFirst) {
  Rng rng(102);
  const Index k = 200, m = 50;
  const Matrix g = monte_carlo_normal(k, m, rng);
  std::vector<Real> alpha(static_cast<std::size_t>(m), 0.0);
  alpha[7] = 10.0;   // dominant
  alpha[20] = 0.5;
  const std::vector<Real> f = synthesize(g, alpha);
  const SolverPath path = OmpSolver().fit_path(g, f, 2);
  EXPECT_EQ(path.selection_order[0], 7);
}

TEST(Omp, CoefficientsMatchLeastSquaresOnSupport) {
  // Step 6 of Algorithm 1: at every step, coefficients equal the LS fit
  // restricted to the selected columns.
  Rng rng(103);
  const Index k = 80, m = 120;
  const Matrix g = monte_carlo_normal(k, m, rng);
  const std::vector<Real> f = rng.normal_vector(k);  // generic target
  const SolverPath path = OmpSolver().fit_path(g, f, 6);
  ASSERT_EQ(path.num_steps(), 6);
  for (Index t = 0; t < path.num_steps(); ++t) {
    const std::vector<Index> sup = path.support(t);
    Matrix g_sup(k, static_cast<Index>(sup.size()));
    for (std::size_t j = 0; j < sup.size(); ++j)
      g_sup.set_col(static_cast<Index>(j), g.col(sup[j]));
    const std::vector<Real> ls = QrFactorization(g_sup).solve(f);
    const std::vector<Real>& omp =
        path.coefficients[static_cast<std::size_t>(t)];
    for (std::size_t j = 0; j < sup.size(); ++j)
      EXPECT_NEAR(omp[j], ls[j], 1e-8) << "step " << t << " pos " << j;
  }
}

TEST(Omp, ResidualNormsDecreaseMonotonically) {
  Rng rng(104);
  const Matrix g = monte_carlo_normal(50, 100, rng);
  const std::vector<Real> f = rng.normal_vector(50);
  const SolverPath path = OmpSolver().fit_path(g, f, 20);
  for (std::size_t t = 1; t < path.residual_norms.size(); ++t)
    EXPECT_LE(path.residual_norms[t], path.residual_norms[t - 1] + 1e-12);
}

TEST(Omp, NeverSelectsSameColumnTwice) {
  Rng rng(105);
  const Matrix g = monte_carlo_normal(40, 60, rng);
  const std::vector<Real> f = rng.normal_vector(40);
  const SolverPath path = OmpSolver().fit_path(g, f, 30);
  std::set<Index> seen(path.selection_order.begin(),
                       path.selection_order.end());
  EXPECT_EQ(seen.size(), path.selection_order.size());
}

TEST(Omp, SkipsNumericallyDependentColumns) {
  // Duplicate columns: after picking one, its copy must not be selected.
  Rng rng(107);
  const Index k = 30;
  Matrix g(k, 4);
  const std::vector<Real> c0 = rng.normal_vector(k);
  g.set_col(0, c0);
  g.set_col(1, c0);  // exact duplicate
  g.set_col(2, rng.normal_vector(k));
  g.set_col(3, rng.normal_vector(k));
  const std::vector<Real> f = rng.normal_vector(k);
  const SolverPath path = OmpSolver().fit_path(g, f, 4);
  // Path has 3 independent columns at most.
  EXPECT_LE(path.num_steps(), 3);
  const std::set<Index> sel(path.selection_order.begin(),
                            path.selection_order.end());
  EXPECT_FALSE(sel.count(0) && sel.count(1));
}

TEST(Omp, MaxStepsClampedBySamples) {
  Rng rng(108);
  const Matrix g = monte_carlo_normal(10, 50, rng);
  const std::vector<Real> f = rng.normal_vector(10);
  const SolverPath path = OmpSolver().fit_path(g, f, 50);
  EXPECT_LE(path.num_steps(), 10);
}

TEST(Omp, PathSupportsAreNested) {
  Rng rng(109);
  const Matrix g = monte_carlo_normal(40, 80, rng);
  const std::vector<Real> f = rng.normal_vector(40);
  const SolverPath path = OmpSolver().fit_path(g, f, 10);
  for (Index t = 1; t < path.num_steps(); ++t) {
    const std::vector<Index> prev = path.support(t - 1);
    const std::vector<Index> cur = path.support(t);
    ASSERT_EQ(cur.size(), prev.size() + 1);
    for (std::size_t i = 0; i < prev.size(); ++i) EXPECT_EQ(cur[i], prev[i]);
  }
}

TEST(Omp, TelemetryEventsMirrorTheSolverPath) {
  // With a ring sink installed, each OMP step emits one SolverIterationEvent
  // whose fields replay the SolverPath: selection order, growing active set,
  // and monotonically non-increasing residual norms.
  Rng rng(110);
  const Matrix g = monte_carlo_normal(50, 100, rng);
  const std::vector<Real> f = rng.normal_vector(50);

  const auto ring = std::make_shared<obs::RingBufferSink>();
  obs::set_telemetry_sink(ring);
  const SolverPath path = OmpSolver().fit_path(g, f, 12);
  obs::set_telemetry_sink(nullptr);

  std::vector<obs::SolverIterationEvent> events;
  for (const obs::TelemetryRecord& record : ring->records()) {
    if (const auto* ev = std::get_if<obs::SolverIterationEvent>(&record))
      events.push_back(*ev);
  }
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(path.num_steps()));
  for (std::size_t t = 0; t < events.size(); ++t) {
    EXPECT_EQ(events[t].solver, std::string("OMP"));
    EXPECT_EQ(events[t].step, static_cast<Index>(t));
    EXPECT_EQ(events[t].selected, path.selection_order[t]);
    EXPECT_EQ(events[t].active_count, static_cast<Index>(t) + 1);
    EXPECT_DOUBLE_EQ(events[t].residual_norm, path.residual_norms[t]);
    EXPECT_GT(events[t].max_correlation, 0.0);
    if (t > 0) {
      EXPECT_LE(events[t].residual_norm,
                events[t - 1].residual_norm + 1e-12);
    }
  }
}

TEST(Omp, NoTelemetryEmittedWithoutSink) {
  // The default (null sink) configuration must leave nothing behind: install
  // a ring only AFTER the fit and confirm the fit emitted nothing.
  Rng rng(111);
  const Matrix g = monte_carlo_normal(30, 60, rng);
  const std::vector<Real> f = rng.normal_vector(30);
  (void)OmpSolver().fit_path(g, f, 5);
  const auto ring = std::make_shared<obs::RingBufferSink>();
  obs::set_telemetry_sink(ring);
  obs::set_telemetry_sink(nullptr);
  EXPECT_TRUE(ring->records().empty());
  EXPECT_EQ(ring->dropped(), 0u);
}

// Scaling sweep: recovery holds across problem sizes with K ~ 4 P log10(M).
class OmpRecovery : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OmpRecovery, SupportRecoveredAtSufficientSampling) {
  const auto [m, p] = GetParam();
  const Index k = static_cast<Index>(
      4.0 * p * std::log10(static_cast<double>(m)) + 10);
  Rng rng(static_cast<std::uint64_t>(m * 7 + p));
  const Matrix g = monte_carlo_normal(k, m, rng);
  std::vector<Real> alpha(static_cast<std::size_t>(m), 0.0);
  std::set<Index> support;
  while (static_cast<int>(support.size()) < p)
    support.insert(rng.uniform_index(m));
  for (Index s : support)
    alpha[static_cast<std::size_t>(s)] = rng.normal() >= 0 ? 1.0 : -1.0;
  const std::vector<Real> f = synthesize(g, alpha);
  const SolverPath path = OmpSolver().fit_path(g, f, p);
  const std::set<Index> found(path.selection_order.begin(),
                              path.selection_order.end());
  int hits = 0;
  for (Index s : support) hits += found.count(s) ? 1 : 0;
  EXPECT_GE(hits, p - 1) << "K=" << k;  // allow one miss at this sampling
}

INSTANTIATE_TEST_SUITE_P(Sizes, OmpRecovery,
                         ::testing::Values(std::tuple{100, 3},
                                           std::tuple{500, 5},
                                           std::tuple{2000, 8},
                                           std::tuple{5000, 10}));

}  // namespace
}  // namespace rsm
