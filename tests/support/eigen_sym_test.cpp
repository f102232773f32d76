#include "support/eigen_sym.hpp"

#include <gtest/gtest.h>

#include "linalg/blas.hpp"
#include "stats/rng.hpp"

namespace rsm {
namespace {

Matrix random_symmetric(Index n, Rng& rng) {
  Matrix a(n, n);
  for (Index i = 0; i < n; ++i)
    for (Index j = i; j < n; ++j) {
      const Real v = rng.normal();
      a(i, j) = v;
      a(j, i) = v;
    }
  return a;
}

TEST(EigenSym, DiagonalMatrix) {
  Matrix a(3, 3);
  a(0, 0) = 1;
  a(1, 1) = 5;
  a(2, 2) = 3;
  const SymmetricEigen eig = eigen_symmetric(a);
  EXPECT_NEAR(eig.values[0], 5, 1e-12);
  EXPECT_NEAR(eig.values[1], 3, 1e-12);
  EXPECT_NEAR(eig.values[2], 1, 1e-12);
}

TEST(EigenSym, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  const Matrix a{{2, 1}, {1, 2}};
  const SymmetricEigen eig = eigen_symmetric(a);
  EXPECT_NEAR(eig.values[0], 3, 1e-12);
  EXPECT_NEAR(eig.values[1], 1, 1e-12);
}

class EigenSymRandom : public ::testing::TestWithParam<int> {};

TEST_P(EigenSymRandom, Reconstruction) {
  const Index n = GetParam();
  Rng rng(static_cast<std::uint64_t>(50 + n));
  const Matrix a = random_symmetric(n, rng);
  const SymmetricEigen eig = eigen_symmetric(a);
  // A == V diag(w) V'.
  Matrix vdw(n, n);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j)
      vdw(i, j) = eig.vectors(i, j) * eig.values[static_cast<std::size_t>(j)];
  EXPECT_LT(max_abs_diff(vdw * eig.vectors.transposed(), a), 1e-10 * n);
}

TEST_P(EigenSymRandom, VectorsOrthonormal) {
  const Index n = GetParam();
  Rng rng(static_cast<std::uint64_t>(60 + n));
  const Matrix a = random_symmetric(n, rng);
  const SymmetricEigen eig = eigen_symmetric(a);
  EXPECT_LT(max_abs_diff(gram(eig.vectors), Matrix::identity(n)), 1e-12 * n);
}

TEST_P(EigenSymRandom, ValuesSortedDescending) {
  const Index n = GetParam();
  Rng rng(static_cast<std::uint64_t>(70 + n));
  const SymmetricEigen eig = eigen_symmetric(random_symmetric(n, rng));
  for (std::size_t i = 1; i < eig.values.size(); ++i)
    EXPECT_GE(eig.values[i - 1], eig.values[i]);
}

TEST_P(EigenSymRandom, TraceEqualsSumOfEigenvalues) {
  const Index n = GetParam();
  Rng rng(static_cast<std::uint64_t>(80 + n));
  const Matrix a = random_symmetric(n, rng);
  const SymmetricEigen eig = eigen_symmetric(a);
  Real trace = 0, sum = 0;
  for (Index i = 0; i < n; ++i) trace += a(i, i);
  for (Real v : eig.values) sum += v;
  EXPECT_NEAR(trace, sum, 1e-9 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSymRandom,
                         ::testing::Values(1, 2, 3, 5, 10, 25, 50));

TEST(EigenSym, ReadsUpperTriangleOnly) {
  // Garbage below the diagonal must not change the result.
  Matrix a{{2, 1}, {999, 2}};
  const SymmetricEigen eig = eigen_symmetric(a);
  EXPECT_NEAR(eig.values[0], 3, 1e-12);
  EXPECT_NEAR(eig.values[1], 1, 1e-12);
}

TEST(EigenSym, RejectsNonSquare) {
  EXPECT_THROW(eigen_symmetric(Matrix(2, 3)), Error);
}

}  // namespace
}  // namespace rsm
