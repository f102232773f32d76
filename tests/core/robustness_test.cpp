// Failure injection and degenerate-input behaviour across the solver stack:
// the library must fail loudly (rsm::Error) or degrade gracefully — never
// crash, loop, or return silently wrong shapes.
#include <cmath>
#include <limits>
#include <ostream>

#include <gtest/gtest.h>

#include "core/cross_validation.hpp"
#include "core/lar.hpp"
#include "core/omp.hpp"
#include "core/pipeline.hpp"
#include "core/star.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"

namespace rsm {
namespace {

Matrix random(Index k, Index m, std::uint64_t seed) {
  Rng rng(seed);
  return monte_carlo_normal(k, m, rng);
}

TEST(Robustness, SizeMismatchThrowsEverywhere) {
  const Matrix g = random(20, 10, 1);
  const std::vector<Real> f_bad(19, 1.0);
  EXPECT_THROW((void)OmpSolver().fit_path(g, f_bad, 5), Error);
  EXPECT_THROW((void)StarSolver().fit_path(g, f_bad, 5), Error);
  EXPECT_THROW((void)LarSolver().fit_path(g, f_bad, 5), Error);
}

TEST(Robustness, NonPositiveMaxStepsThrows) {
  const Matrix g = random(20, 10, 2);
  const std::vector<Real> f(20, 1.0);
  EXPECT_THROW((void)OmpSolver().fit_path(g, f, 0), Error);
  EXPECT_THROW((void)LarSolver().fit_path(g, f, -3), Error);
}

TEST(Robustness, AllZeroDesignMatrix) {
  const Matrix g(30, 8);  // all zeros
  Rng rng(3);
  const std::vector<Real> f = rng.normal_vector(30);
  // No usable columns: paths come back empty rather than dividing by zero.
  EXPECT_EQ(OmpSolver().fit_path(g, f, 4).num_steps(), 0);
  EXPECT_EQ(LarSolver().fit_path(g, f, 4).num_steps(), 0);
  const SolverPath star = StarSolver().fit_path(g, f, 4);
  EXPECT_EQ(star.num_steps(), 0);
}

TEST(Robustness, ConstantColumnOnlyProblemIsSolvable) {
  // Single usable direction: every solver should find it and stop.
  Matrix g(25, 3);
  for (Index r = 0; r < 25; ++r) g(r, 1) = 1.0;  // only column 1 non-zero
  std::vector<Real> f(25, 2.5);
  const SolverPath omp = OmpSolver().fit_path(g, f, 3);
  ASSERT_GE(omp.num_steps(), 1);
  EXPECT_EQ(omp.selection_order[0], 1);
  EXPECT_NEAR(omp.coefficients[0][0], 2.5, 1e-12);
  EXPECT_LT(omp.residual_norms[0], 1e-10);
}

TEST(Robustness, MoreStepsThanRankTerminatesCleanly) {
  // Rank-3 matrix disguised as 10 columns: solvers must stop at rank.
  Rng rng(4);
  const Matrix basis = random(40, 3, 5);
  Matrix g(40, 10);
  for (Index j = 0; j < 10; ++j) {
    std::vector<Real> col(40, 0.0);
    for (Index r = 0; r < 40; ++r)
      col[static_cast<std::size_t>(r)] =
          basis(r, j % 3) + 0.5 * basis(r, (j + 1) % 3);
    g.set_col(j, col);
  }
  const std::vector<Real> f = rng.normal_vector(40);
  const SolverPath omp = OmpSolver().fit_path(g, f, 10);
  EXPECT_LE(omp.num_steps(), 3);
  const SolverPath lar = LarSolver().fit_path(g, f, 10);
  EXPECT_LE(lar.num_steps(), 4);
}

TEST(Robustness, HugeValuesDoNotOverflow) {
  Rng rng(6);
  Matrix g = random(30, 12, 7);
  std::vector<Real> f = rng.normal_vector(30);
  for (Real& v : f) v *= 1e150;
  const SolverPath path = OmpSolver().fit_path(g, f, 5);
  ASSERT_GE(path.num_steps(), 1);
  for (const auto& coef : path.coefficients)
    for (Real c : coef) EXPECT_TRUE(std::isfinite(c));
}

TEST(Robustness, TinyValuesKeepPrecision) {
  Rng rng(8);
  Matrix g = random(30, 12, 9);
  std::vector<Real> alpha(12, 0.0);
  alpha[4] = 1e-150;
  std::vector<Real> f(30, 0.0);
  for (Index r = 0; r < 30; ++r) f[static_cast<std::size_t>(r)] =
      alpha[4] * g(r, 4);
  const SolverPath path = OmpSolver().fit_path(g, f, 1);
  ASSERT_EQ(path.num_steps(), 1);
  EXPECT_EQ(path.selection_order[0], 4);
  EXPECT_NEAR(path.coefficients[0][0] / 1e-150, 1.0, 1e-9);
}

TEST(Robustness, CvRejectsDegenerateLambda) {
  const Matrix g = random(40, 20, 10);
  Rng rng(11);
  const std::vector<Real> f = rng.normal_vector(40);
  EXPECT_THROW((void)CrossValidator().run(OmpSolver(), g, f, 0), Error);
}

TEST(Robustness, PipelineChecksDictionaryAgainstSamples) {
  auto dict = std::make_shared<BasisDictionary>(BasisDictionary::linear(5));
  const Matrix samples = random(20, 7, 12);  // 7 vars vs dict's 5
  const std::vector<Real> f(20, 1.0);
  EXPECT_THROW((void)build_model(dict, samples, f), Error);
}

TEST(Robustness, PipelineNullDictionaryThrows) {
  const Matrix samples = random(10, 3, 13);
  const std::vector<Real> f(10, 1.0);
  EXPECT_THROW((void)build_model(nullptr, samples, f), Error);
}

TEST(Robustness, DuplicateRowsAreHarmless) {
  // Repeated sampling points (possible with discrete samplers) must not
  // break any factorization.
  Rng rng(14);
  Matrix g(40, 8);
  const Matrix base = random(10, 8, 15);
  for (Index r = 0; r < 40; ++r)
    for (Index c = 0; c < 8; ++c) g(r, c) = base(r % 10, c);
  std::vector<Real> f(40);
  for (Index r = 0; r < 40; ++r)
    f[static_cast<std::size_t>(r)] = base(r % 10, 0) * 2.0;
  const SolverPath path = OmpSolver().fit_path(g, f, 4);
  ASSERT_GE(path.num_steps(), 1);
  EXPECT_EQ(path.selection_order[0], 0);
  EXPECT_LT(path.residual_norms.back(), 1e-10);
}

// The sweep parameter prints as the solver's name, so test names (and the
// ctest names gtest_discover_tests derives from the printed value) stay the
// same from run to run instead of carrying an ASLR-dependent address.
struct NamedSolver {
  const PathSolver* solver;
};

void PrintTo(const NamedSolver& s, std::ostream* os) {
  *os << s.solver->name();
}

class AllSolversDegenerate : public ::testing::TestWithParam<NamedSolver> {};

// Shared instances for the parameterized sweep.
const OmpSolver kOmp;
const StarSolver kStar;
const LarSolver kLar;

TEST_P(AllSolversDegenerate, SingleSampleSingleColumn) {
  Matrix g(2, 1);
  g(0, 0) = 1.0;
  g(1, 0) = 1.0;
  const std::vector<Real> f{3.0, 3.0};
  const SolverPath path = GetParam().solver->fit_path(g, f, 40);
  ASSERT_GT(path.num_steps(), 0);
  const std::vector<Real> dense =
      path.dense_coefficients(path.num_steps() - 1, 1);
  EXPECT_NEAR(dense[0], 3.0, 0.05);
}

TEST_P(AllSolversDegenerate, ZeroTarget) {
  Rng rng(16);
  const Matrix g = monte_carlo_normal(15, 6, rng);
  const std::vector<Real> f(15, 0.0);
  const SolverPath path = GetParam().solver->fit_path(g, f, 4);
  // Either an empty path or all-zero coefficients.
  for (Index t = 0; t < path.num_steps(); ++t)
    for (Real c : path.coefficients[static_cast<std::size_t>(t)])
      EXPECT_NEAR(c, 0.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Solvers, AllSolversDegenerate,
                         ::testing::Values(NamedSolver{&kOmp},
                                           NamedSolver{&kStar},
                                           NamedSolver{&kLar}));

}  // namespace
}  // namespace rsm
