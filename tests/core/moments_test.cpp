// Analytic moment extraction from sparse Hermite models (APEX-style,
// paper ref [8]): closed-form mean/variance/skewness vs quadrature and
// Monte Carlo ground truth.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "basis/hermite.hpp"
#include "core/model.hpp"
#include "stats/descriptive.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"
#include "support/quadrature.hpp"

namespace rsm {
namespace {

TEST(HermiteTripleProduct, MatchesQuadratureExhaustively) {
  // All (a, b, c) with orders <= 5 against an exact Gauss-Hermite rule.
  for (int a = 0; a <= 5; ++a) {
    for (int b = 0; b <= 5; ++b) {
      for (int c = 0; c <= 5; ++c) {
        const Real exact = normal_expectation(
            [=](Real x) {
              return hermite_normalized(a, x) * hermite_normalized(b, x) *
                     hermite_normalized(c, x);
            },
            /*num_points=*/(a + b + c) / 2 + 2);
        EXPECT_NEAR(hermite_triple_product(a, b, c), exact, 1e-9)
            << "a=" << a << " b=" << b << " c=" << c;
      }
    }
  }
}

TEST(HermiteTripleProduct, KnownValues) {
  EXPECT_DOUBLE_EQ(hermite_triple_product(0, 0, 0), 1.0);
  // E[g1 g1 g0] = E[x^2] = 1.
  EXPECT_NEAR(hermite_triple_product(1, 1, 0), 1.0, 1e-12);
  // E[g1 g1 g2] = E[x^2 (x^2-1)]/sqrt(2) = sqrt(2).
  EXPECT_NEAR(hermite_triple_product(1, 1, 2), std::sqrt(2.0), 1e-12);
  // Odd total order vanishes.
  EXPECT_EQ(hermite_triple_product(1, 1, 1), 0.0);
  EXPECT_EQ(hermite_triple_product(2, 1, 0), 0.0);
  // Triangle violation vanishes: s=3 < c=4.
  EXPECT_EQ(hermite_triple_product(1, 1, 4), 0.0);
}

std::shared_ptr<const BasisDictionary> dict(Index n) {
  return std::make_shared<BasisDictionary>(BasisDictionary::quadratic(n));
}

TEST(Moments, LinearModelHasZeroSkewness) {
  const SparseModel model(dict(4), {{0, 2.0}, {1, 1.5}, {3, -0.5}});
  EXPECT_NEAR(model.analytic_third_moment(), 0.0, 1e-12);
  EXPECT_NEAR(model.analytic_skewness(), 0.0, 1e-12);
}

TEST(Moments, PureSquareTermKnownSkewness) {
  // f = c * g2(y0) = c (y0^2 - 1)/sqrt(2): a scaled, centered chi-square.
  // mu3 = c^3 E[g2^3] = c^3 * 2 * sqrt(2) / ... compute via the triple
  // product: E[g2 g2 g2] = hermite_triple_product(2,2,2) = 2*sqrt(2)... and
  // skewness = mu3 / c^3 = E[g2^3] since var = c^2 -> mu3/(c^3).
  const Real c = 0.7;
  const SparseModel model(dict(3), {{4, c}});  // index 4 = H2(y0)
  const Real e_g2_cubed = hermite_triple_product(2, 2, 2);
  EXPECT_NEAR(model.analytic_third_moment(), c * c * c * e_g2_cubed, 1e-12);
  EXPECT_NEAR(model.analytic_skewness(), e_g2_cubed, 1e-12);
  // chi-square-1 skewness = sqrt(8); our variable is (chi2_1 - 1)/sqrt(2),
  // same standardized skewness.
  EXPECT_NEAR(model.analytic_skewness(), std::sqrt(8.0), 1e-12);
}

TEST(Moments, NegativeSquareCoefficientFlipsSkew) {
  const SparseModel model(dict(3), {{4, -0.7}});
  EXPECT_NEAR(model.analytic_skewness(), -std::sqrt(8.0), 1e-12);
}

TEST(Moments, MatchesMonteCarloOnMixedModel) {
  // Mixed linear + squares + cross terms over 4 variables.
  const SparseModel model(dict(4), {{0, 1.0},   // constant
                                    {1, 0.8},   // y0
                                    {3, -0.4},  // y2
                                    {5, 0.5},   // H2(y0)
                                    {7, -0.3},  // H2(y2)
                                    {9, 0.6}}); // first cross term
  Rng rng(41);
  const Matrix samples = monte_carlo_normal(400000, 4, rng);
  const std::vector<Real> values = model.predict_all(samples);

  EXPECT_NEAR(mean(values), model.analytic_mean(), 0.01);
  EXPECT_NEAR(variance(values), model.analytic_variance(), 0.02);
  EXPECT_NEAR(skewness(values), model.analytic_skewness(), 0.05);
}

TEST(Moments, CrossTermSkewContribution) {
  // f = a*y0 + b*y1 + c*y0*y1 has mu3 = 6abc (classic bilinear result);
  // verify the Hermite machinery reproduces it.
  const Real a = 0.9, b = -0.7, c = 0.4;
  auto d = dict(2);
  // quadratic(2) order: 1, y0, y1, H2(y0), H2(y1), y0y1.
  const SparseModel model(d, {{1, a}, {2, b}, {5, c}});
  EXPECT_NEAR(model.analytic_third_moment(), 6 * a * b * c, 1e-12);
}

TEST(Moments, DegenerateModelSkewnessIsZero) {
  const SparseModel constant(dict(2), {{0, 3.0}});
  EXPECT_EQ(constant.analytic_skewness(), 0.0);
}

}  // namespace
}  // namespace rsm
