#include "core/solver_path.hpp"

#include <gtest/gtest.h>

#include "core/lar.hpp"
#include "core/omp.hpp"
#include "core/star.hpp"
#include "stats/rng.hpp"
#include "util/thread_pool.hpp"

namespace rsm {
namespace {

SolverPath prefix_path() {
  SolverPath p;
  p.selection_order = {4, 1, 7};
  p.coefficients = {{1.0}, {0.9, 2.0}, {0.8, 1.9, -3.0}};
  p.residual_norms = {5.0, 2.0, 0.5};
  return p;
}

TEST(SolverPath, PrefixSupports) {
  const SolverPath p = prefix_path();
  EXPECT_EQ(p.num_steps(), 3);
  EXPECT_EQ(p.support(0), (std::vector<Index>{4}));
  EXPECT_EQ(p.support(1), (std::vector<Index>{4, 1}));
  EXPECT_EQ(p.support(2), (std::vector<Index>{4, 1, 7}));
}

TEST(SolverPath, DenseCoefficientsScatter) {
  const SolverPath p = prefix_path();
  const std::vector<Real> dense = p.dense_coefficients(2, 10);
  ASSERT_EQ(dense.size(), 10u);
  EXPECT_EQ(dense[4], 0.8);
  EXPECT_EQ(dense[1], 1.9);
  EXPECT_EQ(dense[7], -3.0);
  EXPECT_EQ(dense[0], 0.0);
}

TEST(SolverPath, DenseCoefficientsAccumulateDuplicates) {
  SolverPath p;
  p.selection_order = {2, 2};
  p.coefficients = {{1.0}, {1.0, 0.5}};
  const std::vector<Real> dense = p.dense_coefficients(1, 4);
  EXPECT_EQ(dense[2], 1.5);
}

TEST(SolverPath, OutOfRangeStepThrows) {
  const SolverPath p = prefix_path();
  EXPECT_THROW((void)p.support(3), Error);
  EXPECT_THROW((void)p.support(-1), Error);
}

TEST(SolverPath, IndexOutsideColumnsThrows) {
  const SolverPath p = prefix_path();
  EXPECT_THROW((void)p.dense_coefficients(2, 5), Error);  // index 7 >= 5
}

// Every solver scans through gemv_transposed, which splits G's columns over
// the parallel_for pool when G is large and runs inline inside a ThreadPool
// worker. The two must give the same path, bit for bit.
TEST(SolverPath, ParallelAndInlineScansGiveIdenticalPaths) {
  constexpr Index kRows = 300;
  constexpr Index kCols = 2000;  // rows * cols is above the parallel threshold
  Rng rng(11);
  Matrix g(kRows, kCols);
  for (Index r = 0; r < kRows; ++r) rng.fill_normal(g.row(r));
  std::vector<Real> f = rng.normal_vector(kRows);
  for (Index r = 0; r < kRows; ++r)
    f[static_cast<std::size_t>(r)] =
        0.1 * f[static_cast<std::size_t>(r)] + 3.0 * g(r, 5) -
        2.0 * g(r, 77) + 0.5 * g(r, 1500);

  const OmpSolver omp;
  const StarSolver star;
  const LarSolver lar;
  ThreadPool::Options pool_options;
  pool_options.num_threads = 1;
  ThreadPool pool(pool_options);
  for (const PathSolver* solver :
       std::initializer_list<const PathSolver*>{&omp, &star, &lar}) {
    const SolverPath parallel = solver->fit_path(g, f, 40);
    SolverPath serial;
    pool.submit([&] { serial = solver->fit_path(g, f, 40); });
    pool.wait_idle();
    ASSERT_GT(parallel.num_steps(), 0) << solver->name();
    EXPECT_EQ(parallel.selection_order, serial.selection_order)
        << solver->name();
    EXPECT_EQ(parallel.coefficients, serial.coefficients) << solver->name();
    EXPECT_EQ(parallel.residual_norms, serial.residual_norms)
        << solver->name();
  }
}

}  // namespace
}  // namespace rsm
