#include "support/quadrature.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "basis/hermite.hpp"

namespace rsm {
namespace {

TEST(GaussHermite, WeightsSumToOne) {
  for (int n : {1, 2, 5, 10, 20, 40}) {
    const QuadratureRule rule = gauss_hermite(n);
    Real sum = 0;
    for (Real w : rule.weights) sum += w;
    EXPECT_NEAR(sum, 1.0, 1e-12) << "n=" << n;
  }
}

TEST(GaussHermite, NormalMoments) {
  // E[X^k] for X ~ N(0,1): 0,1,0,3,0,15 for k=1..6.
  const Real expected[] = {0, 1, 0, 3, 0, 15};
  for (int k = 1; k <= 6; ++k) {
    const Real got = normal_expectation(
        [k](Real x) { return std::pow(x, k); }, 10);
    EXPECT_NEAR(got, expected[k - 1], 1e-9) << "k=" << k;
  }
}

TEST(GaussHermite, ExactForPolynomialsUpToDegree2nMinus1) {
  // 3-point rule integrates degree-5 polynomials exactly.
  const Real got = normal_expectation(
      [](Real x) { return x * x * x * x + 2 * x * x + x + 1; }, 3);
  EXPECT_NEAR(got, 3 + 2 + 0 + 1, 1e-10);
}

TEST(GaussHermite, NodesSymmetric) {
  const QuadratureRule rule = gauss_hermite(8);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(rule.nodes[static_cast<std::size_t>(i)],
                -rule.nodes[static_cast<std::size_t>(7 - i)], 1e-12);
    EXPECT_NEAR(rule.weights[static_cast<std::size_t>(i)],
                rule.weights[static_cast<std::size_t>(7 - i)], 1e-12);
  }
}

TEST(GaussHermite, OddRuleHasZeroNode) {
  const QuadratureRule rule = gauss_hermite(7);
  EXPECT_NEAR(rule.nodes[3], 0.0, 1e-12);
}

class HermiteOrthonormality
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HermiteOrthonormality, Eq2HoldsExactly) {
  // The paper's eq. (2): E[g_i g_j] = delta_ij under the normal weight.
  const auto [i, j] = GetParam();
  const Real inner = normal_expectation(
      [i = i, j = j](Real x) {
        return hermite_normalized(i, x) * hermite_normalized(j, x);
      },
      /*num_points=*/(i + j) / 2 + 2);
  EXPECT_NEAR(inner, i == j ? 1.0 : 0.0, 1e-9) << "i=" << i << " j=" << j;
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, HermiteOrthonormality,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 5, 8),
                       ::testing::Values(0, 1, 2, 3, 5, 8)));

TEST(GaussHermite, TwoDimensionalExpectation) {
  // E[x^2 y^2] = 1 for independent standard normals; E[x y] = 0.
  EXPECT_NEAR(
      normal_expectation_2d([](Real x, Real y) { return x * x * y * y; }, 6),
      1.0, 1e-10);
  EXPECT_NEAR(normal_expectation_2d([](Real x, Real y) { return x * y; }, 6),
              0.0, 1e-12);
}

TEST(GaussHermite, GaussianIntegrand) {
  // E[e^X] = sqrt(e) for X ~ N(0,1); needs a large rule (non-polynomial).
  EXPECT_NEAR(normal_expectation([](Real x) { return std::exp(x); }, 40),
              std::exp(0.5), 1e-10);
}

}  // namespace
}  // namespace rsm
