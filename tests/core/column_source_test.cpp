#include "core/column_source.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "core/lar.hpp"
#include "core/omp.hpp"
#include "core/star.hpp"
#include "linalg/vector_ops.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"

namespace rsm {
namespace {

TEST(ColumnSource, MaterializedMatchesMatrix) {
  Rng rng(901);
  const Matrix g = monte_carlo_normal(15, 8, rng);
  const MaterializedSource src(g);
  EXPECT_EQ(src.rows(), 15);
  EXPECT_EQ(src.num_columns(), 8);

  const std::vector<Real> x = rng.normal_vector(15);
  std::vector<Real> corr(8);
  src.correlate(x, corr);
  for (Index j = 0; j < 8; ++j)
    EXPECT_NEAR(corr[static_cast<std::size_t>(j)], dot(g.col(j), x), 1e-12);

  std::vector<Real> col(15);
  src.column(3, col);
  const std::vector<Real> expected = g.col(3);
  for (std::size_t i = 0; i < col.size(); ++i)
    EXPECT_EQ(col[i], expected[i]);
}

TEST(ColumnSource, DictionaryMatchesMaterializedDesign) {
  Rng rng(902);
  const Index n = 8, k = 25;
  auto dict = std::make_shared<BasisDictionary>(BasisDictionary::quadratic(n));
  const Matrix samples = monte_carlo_normal(k, n, rng);
  const Matrix g = dict->design_matrix(samples);

  const DictionarySource lazy(dict, samples);
  const MaterializedSource dense(g);
  EXPECT_EQ(lazy.rows(), dense.rows());
  EXPECT_EQ(lazy.num_columns(), dense.num_columns());

  const std::vector<Real> x = rng.normal_vector(k);
  std::vector<Real> corr_lazy(static_cast<std::size_t>(dict->size()));
  std::vector<Real> corr_dense(static_cast<std::size_t>(dict->size()));
  lazy.correlate(x, corr_lazy);
  dense.correlate(x, corr_dense);
  for (std::size_t j = 0; j < corr_lazy.size(); ++j)
    EXPECT_NEAR(corr_lazy[j], corr_dense[j], 1e-10) << "col " << j;

  std::vector<Real> col_lazy(static_cast<std::size_t>(k));
  std::vector<Real> col_dense(static_cast<std::size_t>(k));
  for (Index j : {0L, 5L, dict->size() - 1}) {
    lazy.column(j, col_lazy);
    dense.column(j, col_dense);
    for (std::size_t i = 0; i < col_lazy.size(); ++i)
      EXPECT_NEAR(col_lazy[i], col_dense[i], 1e-12);
  }
}

TEST(ColumnSource, StreamingOmpMatchesMaterializedOmp) {
  Rng rng(903);
  const Index n = 10, k = 60;
  auto dict = std::make_shared<BasisDictionary>(BasisDictionary::quadratic(n));
  const Matrix samples = monte_carlo_normal(k, n, rng);
  const Matrix g = dict->design_matrix(samples);
  const std::vector<Real> f = rng.normal_vector(k);

  const OmpSolver solver;
  const SolverPath dense = solver.fit_path(g, f, 10);
  const SolverPath lazy =
      solver.fit_path(DictionarySource(dict, samples), f, 10);

  ASSERT_EQ(dense.num_steps(), lazy.num_steps());
  for (Index t = 0; t < dense.num_steps(); ++t) {
    EXPECT_EQ(dense.selection_order[static_cast<std::size_t>(t)],
              lazy.selection_order[static_cast<std::size_t>(t)]);
    const auto& cd = dense.coefficients[static_cast<std::size_t>(t)];
    const auto& cl = lazy.coefficients[static_cast<std::size_t>(t)];
    for (std::size_t s = 0; s < cd.size(); ++s)
      EXPECT_NEAR(cd[s], cl[s], 1e-9);
  }
}

// Every solver fits through a ColumnSource, so STAR and LAR run on a lazy
// dictionary too. The lazy scan rounds differently from the matrix scan;
// the path must still pick the same columns with the same coefficients.
TEST(ColumnSource, StreamingStarAndLarMatchMaterialized) {
  Rng rng(905);
  const Index n = 10, k = 80;
  auto dict = std::make_shared<BasisDictionary>(BasisDictionary::quadratic(n));
  const Matrix samples = monte_carlo_normal(k, n, rng);
  const Matrix g = dict->design_matrix(samples);
  std::vector<Real> f = rng.normal_vector(k);
  for (Index r = 0; r < k; ++r)
    f[static_cast<std::size_t>(r)] = 0.1 * f[static_cast<std::size_t>(r)] +
                                     2.0 * g(r, 3) - 1.5 * g(r, 17) +
                                     0.7 * g(r, 40);

  const StarSolver star;
  const LarSolver lar;
  for (const PathSolver* solver :
       std::initializer_list<const PathSolver*>{&star, &lar}) {
    const SolverPath dense = solver->fit_path(MaterializedSource(g), f, 12);
    const SolverPath lazy =
        solver->fit_path(DictionarySource(dict, samples), f, 12);
    ASSERT_GT(dense.num_steps(), 3) << solver->name();
    EXPECT_EQ(dense.selection_order, lazy.selection_order) << solver->name();
    ASSERT_EQ(dense.num_steps(), lazy.num_steps()) << solver->name();
    for (Index t = 0; t < dense.num_steps(); ++t) {
      const auto& cd = dense.coefficients[static_cast<std::size_t>(t)];
      const auto& cl = lazy.coefficients[static_cast<std::size_t>(t)];
      ASSERT_EQ(cd.size(), cl.size());
      for (std::size_t s = 0; s < cd.size(); ++s)
        EXPECT_LE(std::abs(cd[s] - cl[s]), 1e-12 * std::abs(cd[s]))
            << solver->name() << " step " << t << " term " << s;
    }
  }
}

TEST(ColumnSource, RowViewMatchesCopiedRows) {
  Rng rng(906);
  const Matrix g = monte_carlo_normal(20, 9, rng);
  const std::vector<Index> rows{17, 2, 9, 9, 0};
  const MaterializedSource view(g, rows);
  EXPECT_EQ(view.rows(), 5);
  EXPECT_EQ(view.num_columns(), 9);
  std::vector<Real> col(5);
  view.column(4, col);
  for (std::size_t i = 0; i < rows.size(); ++i)
    EXPECT_EQ(col[i], g(rows[i], 4));
  const std::vector<Index> outside{3, 20};
  EXPECT_THROW(MaterializedSource(g, outside), Error);
}

TEST(ColumnSource, HugeDictionaryWithoutMaterialization) {
  // The point of streaming: a dictionary whose design matrix would be
  // ~1.4 GB (K=600 x M=320k doubles) fits a sparse model in modest memory.
  Rng rng(904);
  const Index n = 800;  // quadratic M = 1 + 1600 + 319600 = 321201
  auto dict = std::make_shared<BasisDictionary>(BasisDictionary::quadratic(n));
  ASSERT_GT(dict->size(), 300000);
  const Index k = 200;
  const Matrix samples = monte_carlo_normal(k, n, rng);

  // Ground truth: 3 columns of the dictionary.
  const std::vector<Index> support{1, 900, 200000};
  std::vector<Real> f(static_cast<std::size_t>(k), 0.0);
  for (Index kk = 0; kk < k; ++kk)
    for (Index s : support)
      f[static_cast<std::size_t>(kk)] +=
          2.0 * dict->evaluate(s, samples.row(kk));

  const SolverPath path =
      OmpSolver().fit_path(DictionarySource(dict, samples), f, 3);
  ASSERT_EQ(path.num_steps(), 3);
  std::set<Index> found(path.selection_order.begin(),
                        path.selection_order.end());
  for (Index s : support) EXPECT_TRUE(found.count(s)) << "missing " << s;
}

}  // namespace
}  // namespace rsm
