#include "linalg/blas.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <numeric>

#include "stats/rng.hpp"
#include "util/thread_pool.hpp"

namespace rsm {
namespace {

Matrix random_matrix(Index rows, Index cols, Rng& rng) {
  Matrix m(rows, cols);
  for (Index r = 0; r < rows; ++r) rng.fill_normal(m.row(r));
  return m;
}

/// Reference O(n^3) product without blocking.
Matrix naive_product(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (Index i = 0; i < a.rows(); ++i)
    for (Index j = 0; j < b.cols(); ++j) {
      Real s = 0;
      for (Index k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      c(i, j) = s;
    }
  return c;
}

TEST(Blas, GemvMatchesManual) {
  Rng rng(1);
  const Matrix a = random_matrix(6, 4, rng);
  const std::vector<Real> x = rng.normal_vector(4);
  std::vector<Real> y(6);
  gemv(a, x, y);
  for (Index r = 0; r < 6; ++r) {
    Real expected = 0;
    for (Index c = 0; c < 4; ++c)
      expected += a(r, c) * x[static_cast<std::size_t>(c)];
    EXPECT_NEAR(y[static_cast<std::size_t>(r)], expected, 1e-12);
  }
}

TEST(Blas, GemvTransposedMatchesExplicitTranspose) {
  Rng rng(2);
  const Matrix a = random_matrix(7, 5, rng);
  const std::vector<Real> x = rng.normal_vector(7);
  std::vector<Real> y1(5), y2(5);
  gemv_transposed(a, x, y1);
  gemv(a.transposed(), x, y2);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

/// Scalar row-by-row reference for gemv_transposed: y = 0, then
/// y[j] += x[r] * a(r, j) for r = 0..K-1 — the kernel's summation order.
std::vector<Real> reference_gemv_transposed(const Matrix& a,
                                            std::span<const Real> x) {
  std::vector<Real> y(static_cast<std::size_t>(a.cols()), Real{0});
  for (Index r = 0; r < a.rows(); ++r) {
    const Real xr = x[static_cast<std::size_t>(r)];
    for (Index j = 0; j < a.cols(); ++j)
      y[static_cast<std::size_t>(j)] += xr * a(r, j);
  }
  return y;
}

/// Exact bit equality (EXPECT_EQ on doubles would also pass -0 == +0).
void expect_same_bits(const std::vector<Real>& got,
                      const std::vector<Real>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t j = 0; j < got.size(); ++j) {
    std::uint64_t g = 0, w = 0;
    std::memcpy(&g, &got[j], sizeof g);
    std::memcpy(&w, &want[j], sizeof w);
    ASSERT_EQ(g, w) << what << ": column " << j << " got " << got[j]
                    << " want " << want[j];
  }
}

// Differential sweep: the blocked, column-parallel kernel against the
// scalar reference, bit for bit. K and M straddle the 4-row block and the
// column tile; the largest shapes cross the parallel work threshold.
class GemvTransposedShapes
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GemvTransposedShapes, BitIdenticalToScalarReference) {
  const auto [k, m] = GetParam();
  Rng rng(static_cast<std::uint64_t>(k * 10007 + m));
  const Matrix a = random_matrix(k, m, rng);
  std::vector<Real> x = rng.normal_vector(k);
  std::vector<Real> x_zeros = x;  // every third entry exactly zero
  for (std::size_t r = 0; r < x_zeros.size(); r += 3) x_zeros[r] = 0;

  for (const std::vector<Real>* input : {&x, &x_zeros}) {
    const std::vector<Real> want = reference_gemv_transposed(a, *input);
    std::vector<Real> whole(static_cast<std::size_t>(m), Real{-1});
    gemv_transposed(a, *input, whole);
    expect_same_bits(whole, want, "gemv_transposed");

    // Any split of the columns into contiguous ranges, 1 to 8 parts, gives
    // the same bits: the result cannot depend on the thread count.
    for (int parts = 1; parts <= 8; ++parts) {
      std::vector<Real> split(static_cast<std::size_t>(m), Real{-1});
      for (int p = parts - 1; p >= 0; --p)  // reverse order, too
        gemv_transposed_columns(a, *input, split, Index{m} * p / parts,
                                Index{m} * (p + 1) / parts);
      expect_same_bits(split, whole, "column split");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemvTransposedShapes,
    ::testing::Combine(::testing::Values(1, 3, 4, 5, 999),
                       ::testing::Values(1, 7, 63, 1023, 1025, 5003)));

TEST(Blas, GemvTransposedColumnsWritesOnlyItsRange) {
  Rng rng(6);
  const Matrix a = random_matrix(9, 40, rng);
  const std::vector<Real> x = rng.normal_vector(9);
  std::vector<Real> y(40, Real{7});
  gemv_transposed_columns(a, x, y, 11, 29);
  const std::vector<Real> want = reference_gemv_transposed(a, x);
  for (std::size_t j = 0; j < 40; ++j) {
    if (j >= 11 && j < 29)
      EXPECT_EQ(y[j], want[j]) << j;
    else
      EXPECT_EQ(y[j], Real{7}) << j;
  }
  EXPECT_THROW(gemv_transposed_columns(a, x, y, 30, 29), Error);
  EXPECT_THROW(gemv_transposed_columns(a, x, y, 0, 41), Error);
}

// Differential sweep for the row-list scan that cross-validation folds run
// on: random row subsets and permutations of A, with K not a multiple of
// the 4-row block and M not a multiple of the column tile. The scan must
// equal, bit for bit, a scalar loop over the listed rows and the full scan
// of a matrix holding copies of those rows, at every column split.
// parallel_width() is fixed per process, so tests/CMakeLists.txt also runs
// this suite at RSM_THREADS=1 and RSM_THREADS=4.
class GemvTransposedRows : public ::testing::TestWithParam<int> {};

TEST_P(GemvTransposedRows, BitIdenticalToGatheredCopy) {
  const Index m = GetParam();
  if (const char* threads = std::getenv("RSM_THREADS")) {
    ASSERT_EQ(parallel_width(), std::atoi(threads));
  }
  constexpr Index kRows = 403;
  Rng rng(static_cast<std::uint64_t>(4099 + m));
  const Matrix a = random_matrix(kRows, m, rng);

  std::vector<Index> permutation(static_cast<std::size_t>(kRows));
  std::iota(permutation.begin(), permutation.end(), Index{0});
  rng.shuffle(permutation);
  std::vector<std::vector<Index>> lists;
  lists.push_back(permutation);
  lists.emplace_back(permutation.begin(), permutation.begin() + 301);
  lists.emplace_back(permutation.begin() + 7, permutation.begin() + 10);
  std::vector<Index> sorted_subset(permutation.begin(),
                                   permutation.begin() + 198);
  std::sort(sorted_subset.begin(), sorted_subset.end());
  lists.push_back(sorted_subset);

  for (const std::vector<Index>& rows : lists) {
    const Index k = static_cast<Index>(rows.size());
    ASSERT_NE(k % 4, 0);
    Matrix copy(k, m);
    for (Index i = 0; i < k; ++i)
      for (Index j = 0; j < m; ++j)
        copy(i, j) = a(rows[static_cast<std::size_t>(i)], j);
    std::vector<Real> x = rng.normal_vector(k);
    for (std::size_t i = 0; i < x.size(); i += 5) x[i] = 0;

    std::vector<Real> scalar(static_cast<std::size_t>(m), Real{0});
    for (Index i = 0; i < k; ++i)
      for (Index j = 0; j < m; ++j)
        scalar[static_cast<std::size_t>(j)] +=
            x[static_cast<std::size_t>(i)] *
            a(rows[static_cast<std::size_t>(i)], j);
    std::vector<Real> gathered(static_cast<std::size_t>(m), Real{-1});
    gemv_transposed(copy, x, gathered);
    expect_same_bits(gathered, scalar, "gathered copy");

    std::vector<Real> view(static_cast<std::size_t>(m), Real{-1});
    gemv_transposed(a, x, view, rows);
    expect_same_bits(view, scalar, "row list");

    for (int parts = 1; parts <= 8; ++parts) {
      std::vector<Real> split(static_cast<std::size_t>(m), Real{-1});
      for (int p = 0; p < parts; ++p)
        gemv_transposed_columns(a, x, split, m * p / parts, m * (p + 1) / parts,
                                rows);
      expect_same_bits(split, scalar, "row list, column split");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Columns, GemvTransposedRows,
                         ::testing::Values(63, 1025, 2051));

TEST(Blas, GemvTransposedRowListChecksLengths) {
  Rng rng(7);
  const Matrix a = random_matrix(9, 12, rng);
  const std::vector<Index> rows{8, 0, 3};
  std::vector<Real> y(12);
  EXPECT_THROW(gemv_transposed(a, rng.normal_vector(9), y, rows), Error);
  EXPECT_NO_THROW(gemv_transposed(a, rng.normal_vector(3), y, rows));
}

// Parameterized sweep over shapes, including block-boundary sizes.
class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 1000 + k * 100 + n));
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  const Matrix c = a * b;
  EXPECT_LT(max_abs_diff(c, naive_product(a, b)), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{3, 5, 2},
                      std::tuple{16, 16, 16}, std::tuple{63, 64, 65},
                      std::tuple{64, 65, 63}, std::tuple{65, 63, 64},
                      std::tuple{128, 40, 70}, std::tuple{1, 100, 1}));

TEST(Blas, GramMatchesTransposeProduct) {
  Rng rng(4);
  const Matrix a = random_matrix(30, 12, rng);
  const Matrix g = gram(a);
  EXPECT_LT(max_abs_diff(g, a.transposed() * a), 1e-10);
}

TEST(Blas, GramIsSymmetric) {
  Rng rng(5);
  const Matrix a = random_matrix(20, 9, rng);
  const Matrix g = gram(a);
  EXPECT_LT(max_abs_diff(g, g.transposed()), 1e-14);
}

TEST(Blas, GemmShapeMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(4, 2);
  EXPECT_THROW(a * b, Error);
}

}  // namespace
}  // namespace rsm
