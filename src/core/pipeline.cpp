#include "core/pipeline.hpp"

#include <algorithm>

#include "core/lar.hpp"
#include "core/least_squares.hpp"
#include "core/metrics.hpp"
#include "core/omp.hpp"
#include "core/star.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace rsm {

const char* method_name(Method method) {
  switch (method) {
    case Method::kLeastSquares: return "LS";
    case Method::kStar: return "STAR";
    case Method::kLar: return "LAR";
    case Method::kOmp: return "OMP";
  }
  return "?";
}

std::unique_ptr<PathSolver> make_path_solver(Method method) {
  switch (method) {
    case Method::kStar: return std::make_unique<StarSolver>();
    case Method::kLar: return std::make_unique<LarSolver>();
    case Method::kOmp: return std::make_unique<OmpSolver>();
    case Method::kLeastSquares:
      break;
  }
  throw Error("least squares is not a path solver; call build_model instead");
}

BuildReport build_model(std::shared_ptr<const BasisDictionary> dictionary,
                        const Matrix& samples, std::span<const Real> values,
                        const BuildOptions& options) {
  RSM_CHECK(dictionary != nullptr);
  RSM_CHECK(samples.cols() == dictionary->num_variables());
  WallTimer timer;
  Matrix design;
  {
    RSM_TRACE_SPAN("pipeline.design_matrix");
    design = dictionary->design_matrix(samples);
  }
  BuildReport report =
      build_model_from_design(std::move(dictionary), design, values, options);
  report.fit_seconds = timer.seconds();  // include design evaluation
  return report;
}

BuildReport build_model_from_design(
    std::shared_ptr<const BasisDictionary> dictionary, const Matrix& design,
    std::span<const Real> values, const BuildOptions& options) {
  RSM_TRACE_SPAN("pipeline.fit");
  RSM_CHECK(dictionary != nullptr);
  RSM_CHECK(design.cols() == dictionary->size());
  RSM_CHECK(static_cast<Index>(values.size()) == design.rows());

  WallTimer timer;
  BuildReport report;
  report.method = options.method;

  if (options.method == Method::kLeastSquares) {
    RSM_TRACE_SPAN("pipeline.least_squares");
    LeastSquaresFitter::Options ls_opt;
    ls_opt.ridge = options.ridge;
    const std::vector<Real> dense =
        LeastSquaresFitter(ls_opt).fit(design, values);
    report.model = SparseModel::from_dense(dictionary, dense);
  } else {
    const std::unique_ptr<PathSolver> solver = make_path_solver(options.method);
    Index lambda = options.max_lambda;
    if (!options.skip_cross_validation) {
      RSM_TRACE_SPAN("pipeline.cross_validation");
      CrossValidator::Options cv_opt;
      cv_opt.num_folds = options.cv_folds;
      cv_opt.seed = options.cv_seed;
      report.cv = CrossValidator(cv_opt).run(*solver, design, values,
                                             options.max_lambda);
      lambda = report.cv.best_lambda;
    }
    // Final fit on all training data at the chosen lambda.
    RSM_TRACE_SPAN("pipeline.final_fit");
    const SolverPath path = solver->fit_path(design, values, lambda);
    RSM_CHECK_MSG(path.num_steps() > 0, "solver returned an empty path");
    const Index t = std::min<Index>(lambda, path.num_steps()) - 1;
    const std::vector<Real> dense =
        path.dense_coefficients(t, dictionary->size());
    report.model = SparseModel::from_dense(dictionary, dense);
  }

  report.lambda = report.model.num_terms();
  report.fit_seconds = timer.seconds();

  // Training error for the report (design matrix already in hand).
  std::vector<Real> pred(static_cast<std::size_t>(design.rows()), Real{0});
  for (const ModelTerm& term : report.model.terms())
    for (Index k = 0; k < design.rows(); ++k)
      pred[static_cast<std::size_t>(k)] +=
          term.coefficient * design(k, term.basis_index);
  report.training_error = relative_rms_error(pred, values);

  obs::metrics().counter("pipeline.models_built").increment();
  const std::string per_method_counter =
      std::string("pipeline.models_built.") + method_name(options.method);
  obs::metrics()
      .counter(per_method_counter)  // rsm-lint-allow(metric-name-literal)
      .increment();
  obs::metrics()
      .histogram("pipeline.fit_seconds",
                 {1e-3, 1e-2, 0.1, 0.5, 1, 5, 30, 120, 600})
      .observe(report.fit_seconds);
  obs::metrics().gauge("pipeline.last_lambda").set(
      static_cast<double>(report.lambda));
  return report;
}

Real validate_model(const SparseModel& model, const Matrix& test_samples,
                    std::span<const Real> test_values) {
  const std::vector<Real> pred = model.predict_all(test_samples);
  return relative_rms_error(pred, test_values);
}

SparseModel refit_model(const SparseModel& model, const Matrix& samples,
                        std::span<const Real> values) {
  const BasisDictionary& dict = model.dictionary();
  RSM_CHECK(samples.cols() == dict.num_variables());
  RSM_CHECK(static_cast<Index>(values.size()) == samples.rows());
  const Index p = model.num_terms();
  if (p == 0) return model;
  RSM_CHECK_MSG(samples.rows() >= p,
                "refit needs at least as many samples as model terms");

  Matrix g_support(samples.rows(), p);
  for (Index j = 0; j < p; ++j) {
    const Index basis = model.terms()[static_cast<std::size_t>(j)].basis_index;
    g_support.set_col(j, dict.evaluate_column(basis, samples));
  }
  const std::vector<Real> coef = LeastSquaresFitter().fit(g_support, values);
  std::vector<ModelTerm> terms;
  terms.reserve(static_cast<std::size_t>(p));
  for (Index j = 0; j < p; ++j)
    terms.push_back({model.terms()[static_cast<std::size_t>(j)].basis_index,
                     coef[static_cast<std::size_t>(j)]});
  return SparseModel(model.dictionary_ptr(), std::move(terms));
}

}  // namespace rsm
