#include "core/least_squares.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "linalg/blas.hpp"
#include "linalg/vector_ops.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"

namespace rsm {
namespace {

TEST(LeastSquares, ExactOnDeterminedSystem) {
  const Matrix a{{1, 0}, {0, 2}, {1, 1}};
  const std::vector<Real> x_true{3, -1};
  const std::vector<Real> b = a * x_true;
  const std::vector<Real> x = LeastSquaresFitter().fit(a, b);
  EXPECT_NEAR(x[0], 3, 1e-10);
  EXPECT_NEAR(x[1], -1, 1e-10);
}

TEST(LeastSquares, QrAndNormalEquationsAgree) {
  // Any ridge > 0 solves the normal equations by Cholesky; one far below
  // the Gram matrix's scale leaves the plain least-squares solution.
  Rng rng(401);
  const Matrix a = monte_carlo_normal(100, 20, rng);
  const std::vector<Real> b = rng.normal_vector(100);
  const std::vector<Real> x_qr = LeastSquaresFitter().fit(a, b);
  LeastSquaresFitter::Options opt;
  opt.ridge = 1e-12;
  const std::vector<Real> x_ne = LeastSquaresFitter(opt).fit(a, b);
  for (Index j = 0; j < 20; ++j)
    EXPECT_NEAR(x_qr[static_cast<std::size_t>(j)],
                x_ne[static_cast<std::size_t>(j)], 1e-7);
}

TEST(LeastSquares, UnderdeterminedThrows) {
  Rng rng(402);
  const Matrix a = monte_carlo_normal(5, 10, rng);
  const std::vector<Real> b = rng.normal_vector(5);
  EXPECT_THROW(LeastSquaresFitter().fit(a, b), Error);
}

TEST(LeastSquares, RidgeShrinksCoefficients) {
  Rng rng(403);
  const Matrix a = monte_carlo_normal(50, 10, rng);
  const std::vector<Real> b = rng.normal_vector(50);
  const std::vector<Real> plain = LeastSquaresFitter().fit(a, b);
  LeastSquaresFitter::Options opt;
  opt.ridge = 100.0;
  const std::vector<Real> ridged = LeastSquaresFitter(opt).fit(a, b);
  EXPECT_LT(nrm2(ridged), nrm2(plain));
}

TEST(LeastSquares, RidgeAllowsUnderdetermined) {
  Rng rng(404);
  const Matrix a = monte_carlo_normal(5, 10, rng);
  const std::vector<Real> b = rng.normal_vector(5);
  LeastSquaresFitter::Options opt;
  opt.ridge = 1.0;
  const std::vector<Real> x = LeastSquaresFitter(opt).fit(a, b);
  EXPECT_EQ(x.size(), 10u);
  EXPECT_TRUE(std::isfinite(nrm2(x)));
}

TEST(LeastSquares, RankDeficientFallsBackToPivotedQr) {
  // A duplicated column makes both the plain QR back-substitution and the
  // normal-equation Cholesky singular; the fitter must fall back to the
  // rank-revealing path and return a finite minimizer instead of throwing.
  // The smallest normal ridge takes the Cholesky path yet is lost against
  // the Gram diagonal, so every escalation step stays singular too.
  Rng rng(406);
  Matrix a(30, 4);
  for (Index r = 0; r < 30; ++r) {
    a(r, 0) = rng.normal();
    a(r, 1) = rng.normal();
    a(r, 2) = rng.normal();
    a(r, 3) = a(r, 1);  // dependent column
  }
  std::vector<Real> b(30);
  for (Index r = 0; r < 30; ++r)
    b[static_cast<std::size_t>(r)] = a(r, 0) - 3.0 * a(r, 1);

  for (const Real ridge : {Real{0}, std::numeric_limits<Real>::min()}) {
    LeastSquaresFitter::Options opt;
    opt.ridge = ridge;
    const std::vector<Real> x = LeastSquaresFitter(opt).fit(a, b);
    ASSERT_EQ(x.size(), 4u);
    for (Real v : x) EXPECT_TRUE(std::isfinite(v));
    // b is in the column space, so the recovered fit must be exact even
    // though the coefficient split between the twin columns is not unique.
    const std::vector<Real> r = vsub(b, a * x);
    EXPECT_LT(max_abs(r), 1e-6)
        << (ridge > 0 ? "normal equations" : "qr") << " path";
  }
}

TEST(LeastSquares, ResidualOrthogonalToColumns) {
  Rng rng(405);
  const Matrix a = monte_carlo_normal(60, 8, rng);
  const std::vector<Real> b = rng.normal_vector(60);
  const std::vector<Real> x = LeastSquaresFitter().fit(a, b);
  const std::vector<Real> r = vsub(b, a * x);
  std::vector<Real> at_r(8);
  gemv_transposed(a, r, at_r);
  EXPECT_LT(max_abs(at_r), 1e-9);
}

}  // namespace
}  // namespace rsm
