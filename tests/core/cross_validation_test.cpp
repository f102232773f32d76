#include "core/cross_validation.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include <gtest/gtest.h>

#include "core/lar.hpp"
#include "core/metrics.hpp"
#include "core/omp.hpp"
#include "core/star.hpp"
#include "linalg/vector_ops.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"
#include "util/errors.hpp"

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

/// Builds a noisy sparse problem with known sparsity p.
struct SparseProblem {
  Matrix g;
  std::vector<Real> f;
  Index true_sparsity;
};

SparseProblem make_problem(Index k, Index m, Index p, Real noise,
                           std::uint64_t seed) {
  Rng rng(seed);
  SparseProblem prob;
  prob.g = monte_carlo_normal(k, m, rng);
  std::vector<Real> alpha(static_cast<std::size_t>(m), 0.0);
  for (Index i = 0; i < p; ++i)
    alpha[static_cast<std::size_t>(rng.uniform_index(m))] =
        (rng.uniform() < 0.5 ? -1.0 : 1.0) * (1.0 + rng.uniform());
  prob.f = synthesize(prob.g, alpha);
  for (Real& v : prob.f) v += noise * rng.normal();
  prob.true_sparsity = p;
  return prob;
}

TEST(CrossValidation, PicksLambdaNearTrueSparsity) {
  const SparseProblem prob = make_problem(120, 300, 6, 0.05, 501);
  const OmpSolver solver;
  const CrossValidationResult cv =
      CrossValidator().run(solver, prob.g, prob.f, 40);
  EXPECT_GE(cv.best_lambda, prob.true_sparsity - 1);
  EXPECT_LE(cv.best_lambda, prob.true_sparsity + 6);
}

TEST(CrossValidation, ErrorCurveHasOverfittingTail) {
  // eps(lambda) decreases to a minimum then rises (or flattens) as lambda
  // overshoots the true sparsity — the Section IV-C picture. With noise,
  // the error at lambda_max must exceed the minimum.
  const SparseProblem prob = make_problem(100, 250, 5, 0.2, 502);
  const CrossValidationResult cv =
      CrossValidator().run(OmpSolver(), prob.g, prob.f, 60);
  const Real tail = cv.error_curve.back();
  EXPECT_GT(tail, cv.best_error * 1.05);
}

TEST(CrossValidation, BestErrorConsistentWithCurve) {
  const SparseProblem prob = make_problem(80, 150, 4, 0.1, 503);
  const CrossValidationResult cv =
      CrossValidator().run(OmpSolver(), prob.g, prob.f, 30);
  ASSERT_GE(cv.best_lambda, 1);
  ASSERT_LE(static_cast<std::size_t>(cv.best_lambda), cv.error_curve.size());
  EXPECT_EQ(cv.error_curve[static_cast<std::size_t>(cv.best_lambda - 1)],
            cv.best_error);
  for (Real e : cv.error_curve) EXPECT_GE(e, cv.best_error);
}

TEST(CrossValidation, FoldCurvesPopulated) {
  const SparseProblem prob = make_problem(60, 100, 3, 0.1, 504);
  CrossValidator::Options opt;
  opt.num_folds = 5;
  const CrossValidationResult cv =
      CrossValidator(opt).run(OmpSolver(), prob.g, prob.f, 20);
  EXPECT_EQ(cv.fold_curves.size(), 5u);
  for (const auto& curve : cv.fold_curves) EXPECT_FALSE(curve.empty());
}

TEST(CrossValidation, DeterministicGivenSeed) {
  const SparseProblem prob = make_problem(60, 100, 3, 0.1, 505);
  const CrossValidationResult a =
      CrossValidator().run(OmpSolver(), prob.g, prob.f, 15);
  const CrossValidationResult b =
      CrossValidator().run(OmpSolver(), prob.g, prob.f, 15);
  EXPECT_EQ(a.best_lambda, b.best_lambda);
  EXPECT_EQ(a.error_curve, b.error_curve);
}

TEST(CrossValidation, DifferentSeedsShuffleFolds) {
  const SparseProblem prob = make_problem(60, 100, 3, 0.3, 506);
  CrossValidator::Options o1, o2;
  o1.seed = 1;
  o2.seed = 2;
  const CrossValidationResult a =
      CrossValidator(o1).run(OmpSolver(), prob.g, prob.f, 15);
  const CrossValidationResult b =
      CrossValidator(o2).run(OmpSolver(), prob.g, prob.f, 15);
  EXPECT_NE(a.error_curve, b.error_curve);
}

TEST(CrossValidation, WorksWithStar) {
  const SparseProblem prob = make_problem(80, 120, 4, 0.05, 507);
  const CrossValidationResult cv =
      CrossValidator().run(StarSolver(), prob.g, prob.f, 30);
  EXPECT_GE(cv.best_lambda, 1);
  EXPECT_LT(cv.best_error, 1.0);
}

TEST(CrossValidation, TooFewSamplesThrows) {
  const SparseProblem prob = make_problem(6, 20, 2, 0.0, 508);
  EXPECT_THROW(CrossValidator().run(OmpSolver(), prob.g, prob.f, 5), Error);
}

TEST(CrossValidation, FoldCountValidation) {
  CrossValidator::Options opt;
  opt.num_folds = 1;
  EXPECT_THROW(CrossValidator{opt}, Error);
}

TEST(CrossValidation, CleanRunReportsNoSkippedFolds) {
  const SparseProblem prob = make_problem(60, 100, 3, 0.1, 510);
  const CrossValidationResult cv =
      CrossValidator().run(OmpSolver(), prob.g, prob.f, 15);
  EXPECT_EQ(cv.skipped_folds, 0);
}

/// Delegates to OMP but throws on chosen invocations — a stand-in for a
/// degenerate training block that breaks the path fit.
class FlakySolver : public PathSolver {
 public:
  explicit FlakySolver(int fail_first_n) : fail_first_n_(fail_first_n) {}

  using PathSolver::fit_path;
  [[nodiscard]] SolverPath fit_path(const ColumnSource& g,
                                    std::span<const Real> f,
                                    Index max_steps) const override {
    if (calls_++ < fail_first_n_)
      throw SingularMatrixError("degenerate fold (injected)");
    return inner_.fit_path(g, f, max_steps);
  }

  [[nodiscard]] const char* name() const override { return "flaky"; }

 private:
  OmpSolver inner_;
  int fail_first_n_;
  mutable int calls_ = 0;
};

TEST(CrossValidation, DegenerateFoldIsSkippedNotFatal) {
  const SparseProblem prob = make_problem(80, 120, 4, 0.1, 511);
  const FlakySolver solver(1);  // first fold's fit throws
  const CrossValidationResult cv =
      CrossValidator().run(solver, prob.g, prob.f, 20);
  EXPECT_EQ(cv.skipped_folds, 1);
  ASSERT_EQ(cv.fold_curves.size(), 4u);
  int empty_curves = 0;
  for (const auto& curve : cv.fold_curves)
    if (curve.empty()) ++empty_curves;
  EXPECT_EQ(empty_curves, 1);
  // The surviving folds still produce a usable averaged curve.
  EXPECT_GE(cv.best_lambda, 1);
  EXPECT_TRUE(std::isfinite(cv.best_error));
}

TEST(CrossValidation, AllFoldsDegenerateThrows) {
  const SparseProblem prob = make_problem(80, 120, 4, 0.1, 512);
  const FlakySolver solver(4);  // every fold throws
  EXPECT_THROW((void)CrossValidator().run(solver, prob.g, prob.f, 20), Error);
}

/// Cross-validation as it ran when every fold copied its rows of G: the
/// training rows and the held-out rows become fresh matrices, the solver
/// fits the training copy, and each step is scored on the held-out copy.
CrossValidationResult copied_fold_cv(const PathSolver& solver, const Matrix& g,
                                     std::span<const Real> f,
                                     Index max_lambda, int q,
                                     std::uint64_t seed) {
  const Index k = g.rows();
  std::vector<Index> perm(static_cast<std::size_t>(k));
  std::iota(perm.begin(), perm.end(), Index{0});
  Rng rng(seed);
  rng.shuffle(perm);
  const auto copy_rows = [&](const std::vector<Index>& rows, Matrix& out,
                             std::vector<Real>& values) {
    out = Matrix(static_cast<Index>(rows.size()), g.cols());
    values.resize(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      std::copy(g.row(rows[r]).begin(), g.row(rows[r]).end(),
                out.row(static_cast<Index>(r)).begin());
      values[r] = f[static_cast<std::size_t>(rows[r])];
    }
  };

  CrossValidationResult result;
  result.fold_curves.resize(static_cast<std::size_t>(q));
  for (int fold = 0; fold < q; ++fold) {
    std::vector<Index> train_rows, test_rows;
    for (Index i = 0; i < k; ++i)
      (static_cast<int>(i % q) == fold ? test_rows : train_rows)
          .push_back(perm[static_cast<std::size_t>(i)]);
    Matrix g_train, g_test;
    std::vector<Real> f_train, f_test;
    copy_rows(train_rows, g_train, f_train);
    copy_rows(test_rows, g_test, f_test);
    SolverPath path;
    try {
      path = solver.fit_path(g_train, f_train, max_lambda);
    } catch (const Error&) {
      ++result.skipped_folds;
      continue;
    }
    std::vector<Real> pred(test_rows.size());
    for (Index t = 0; t < path.num_steps(); ++t) {
      const std::vector<Index> sup = path.support(t);
      const std::vector<Real>& coef =
          path.coefficients[static_cast<std::size_t>(t)];
      std::fill(pred.begin(), pred.end(), Real{0});
      for (std::size_t s = 0; s < sup.size(); ++s)
        for (std::size_t r = 0; r < test_rows.size(); ++r)
          pred[r] += coef[s] * g_test(static_cast<Index>(r), sup[s]);
      result.fold_curves[static_cast<std::size_t>(fold)].push_back(
          relative_rms_error(pred, f_test));
    }
  }
  std::size_t common = std::numeric_limits<std::size_t>::max();
  for (const auto& curve : result.fold_curves)
    if (!curve.empty()) common = std::min(common, curve.size());
  result.error_curve.assign(common, Real{0});
  for (const auto& curve : result.fold_curves)
    for (std::size_t t = 0; t < common && !curve.empty(); ++t)
      result.error_curve[t] += curve[t];
  for (Real& e : result.error_curve)
    e /= static_cast<Real>(q - result.skipped_folds);
  const auto best = std::min_element(result.error_curve.begin(),
                                     result.error_curve.end());
  result.best_lambda =
      static_cast<Index>(best - result.error_curve.begin()) + 1;
  result.best_error = *best;
  return result;
}

/// Exact bit equality (EXPECT_EQ on doubles would also pass -0 == +0).
bool same_bits(const std::vector<Real>& a, const std::vector<Real>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Real)) == 0);
}

void expect_same_cv(const CrossValidationResult& got,
                    const CrossValidationResult& want, const char* what) {
  ASSERT_EQ(got.fold_curves.size(), want.fold_curves.size()) << what;
  for (std::size_t q = 0; q < got.fold_curves.size(); ++q)
    EXPECT_TRUE(same_bits(got.fold_curves[q], want.fold_curves[q]))
        << what << ": fold " << q;
  EXPECT_TRUE(same_bits(got.error_curve, want.error_curve)) << what;
  EXPECT_EQ(got.best_lambda, want.best_lambda) << what;
  EXPECT_TRUE(same_bits({got.best_error}, {want.best_error})) << what;
  EXPECT_EQ(got.skipped_folds, want.skipped_folds) << what;
}

// Folds are row views of G, not copies. Every solver must see exactly the
// rows, in exactly the order, that the copies held: curves, lambda and
// error equal the copied-fold reference bit for bit. 300 training rows x
// 1000 columns is above the scan's parallel threshold.
TEST(CrossValidation, FoldViewsMatchCopiedFoldsBitForBit) {
  const SparseProblem prob = make_problem(400, 1000, 6, 0.05, 513);
  const OmpSolver omp;
  const StarSolver star;
  const LarSolver lar;
  CrossValidator::Options opt;
  opt.seed = 29;
  for (const PathSolver* solver :
       std::initializer_list<const PathSolver*>{&omp, &star, &lar}) {
    const CrossValidationResult view =
        CrossValidator(opt).run(*solver, prob.g, prob.f, 30);
    ASSERT_EQ(view.skipped_folds, 0) << solver->name();
    expect_same_cv(view,
                   copied_fold_cv(*solver, prob.g, prob.f, 30, opt.num_folds,
                                  opt.seed),
                   solver->name());
  }
}

TEST(CrossValidation, FoldViewsMatchCopiedFoldsWithADegenerateFold) {
  const SparseProblem prob = make_problem(120, 200, 4, 0.1, 514);
  const CrossValidationResult view =
      CrossValidator().run(FlakySolver(1), prob.g, prob.f, 20);
  ASSERT_EQ(view.skipped_folds, 1);
  expect_same_cv(
      view,
      copied_fold_cv(FlakySolver(1), prob.g, prob.f, 20,
                     CrossValidator::Options{}.num_folds,
                     CrossValidator::Options{}.seed),
      "flaky OMP");
}

class CvFoldSweep : public ::testing::TestWithParam<int> {};

TEST_P(CvFoldSweep, ReasonableLambdaAcrossQ) {
  const int q = GetParam();
  const SparseProblem prob = make_problem(120, 200, 5, 0.1, 509);
  CrossValidator::Options opt;
  opt.num_folds = q;
  const CrossValidationResult cv =
      CrossValidator(opt).run(OmpSolver(), prob.g, prob.f, 30);
  EXPECT_GE(cv.best_lambda, 3);
  EXPECT_LE(cv.best_lambda, 15);
}

INSTANTIATE_TEST_SUITE_P(FoldCounts, CvFoldSweep, ::testing::Values(2, 4, 10));

}  // namespace
}  // namespace rsm
