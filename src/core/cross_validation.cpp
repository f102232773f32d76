#include "core/cross_validation.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "core/column_source.hpp"
#include "core/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace rsm {
namespace {

/// Sorted, distinct columns in any step's support.
std::vector<Index> columns_used(const SolverPath& path) {
  std::vector<Index> used;
  for (Index t = 0; t < path.num_steps(); ++t) {
    const std::vector<Index> sup = path.support(t);
    used.insert(used.end(), sup.begin(), sup.end());
  }
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  return used;
}

}  // namespace

CrossValidator::CrossValidator(const Options& options) : options_(options) {
  RSM_CHECK_MSG(options.num_folds >= 2, "cross-validation needs >= 2 folds");
}

CrossValidationResult CrossValidator::run(const PathSolver& solver,
                                          const Matrix& g,
                                          std::span<const Real> f,
                                          Index max_lambda) const {
  RSM_TRACE_SPAN("cv.run");
  const Index num_samples = g.rows();
  RSM_CHECK(static_cast<Index>(f.size()) == num_samples);
  const int q = options_.num_folds;
  RSM_CHECK_MSG(num_samples >= 2 * q,
                "too few samples (" << num_samples << ") for " << q
                                    << "-fold cross-validation");

  // Random fold assignment (shuffled round-robin keeps folds balanced).
  std::vector<Index> perm(static_cast<std::size_t>(num_samples));
  std::iota(perm.begin(), perm.end(), Index{0});
  Rng rng(options_.seed);
  rng.shuffle(perm);

  CrossValidationResult result;
  result.fold_curves.resize(static_cast<std::size_t>(q));

  for (int fold = 0; fold < q; ++fold) {
    RSM_TRACE_SPAN("cv.fold");
    // Split rows.
    std::vector<Index> train_rows, test_rows;
    for (Index i = 0; i < num_samples; ++i) {
      const Index row = perm[static_cast<std::size_t>(i)];
      if (static_cast<int>(i % q) == fold) {
        test_rows.push_back(row);
      } else {
        train_rows.push_back(row);
      }
    }

    // The fold trains on a view of G's training rows, in this order, so its
    // scans sum exactly what a copy of those rows would.
    const MaterializedSource train(g, train_rows);
    std::vector<Real> f_train(train_rows.size());
    for (std::size_t r = 0; r < train_rows.size(); ++r)
      f_train[r] = f[static_cast<std::size_t>(train_rows[r])];
    std::vector<Real> f_test(test_rows.size());
    for (std::size_t r = 0; r < test_rows.size(); ++r)
      f_test[r] = f[static_cast<std::size_t>(test_rows[r])];

    // One path fit per fold; evaluate every lambda on the held-out fold. A
    // degenerate fold (rank-collapsed training block, a solver that cannot
    // make progress) is skipped with a warning — losing one of Q curves
    // barely moves the averaged eps(lambda), aborting loses the campaign.
    SolverPath path;
    try {
      path = solver.fit_path(train, f_train, max_lambda);
    } catch (const Error& e) {
      // Only *numerical* failures are a property of the fold; a deadline or
      // cancellation unwind is a property of the run and must propagate —
      // treating it as a degenerate fold would silently bias the curve.
      if (const auto* s = dynamic_cast<const StructuredError*>(&e)) {
        if (s->code() == ErrorCode::kDeadlineExceeded ||
            s->code() == ErrorCode::kIoError) {
          throw;
        }
      }
      RSM_WARN("cross-validation: skipping degenerate fold " << fold << ": "
                                                             << e.what());
      ++result.skipped_folds;
      if (obs::telemetry_enabled()) {
        obs::emit(obs::CvFoldEvent{.solver = solver.name(),
                                   .fold = fold,
                                   .skipped = true});
      }
      continue;
    }
    // Score every step on the held-out rows. The held-out values of the
    // columns the path uses (a few hundred at most, not M) are gathered
    // once, so the steps read them contiguously instead of striding over G.
    const std::vector<Index> used = columns_used(path);
    const std::size_t num_test = test_rows.size();
    std::vector<Real> held_out(used.size() * num_test);
    const MaterializedSource test(g, test_rows);
    for (std::size_t u = 0; u < used.size(); ++u) {
      const std::span<Real> column(held_out.data() + u * num_test, num_test);
      test.column(used[u], column);
    }
    std::vector<Real>& curve =
        result.fold_curves[static_cast<std::size_t>(fold)];
    curve.reserve(static_cast<std::size_t>(path.num_steps()));
    std::vector<Real> pred(num_test);
    for (Index t = 0; t < path.num_steps(); ++t) {
      const std::vector<Index> sup = path.support(t);
      const std::vector<Real>& coef =
          path.coefficients[static_cast<std::size_t>(t)];
      std::fill(pred.begin(), pred.end(), Real{0});
      for (std::size_t s = 0; s < sup.size(); ++s) {
        const auto u = static_cast<std::size_t>(
            std::lower_bound(used.begin(), used.end(), sup[s]) - used.begin());
        const Real* column = held_out.data() + u * num_test;
        for (std::size_t r = 0; r < num_test; ++r)
          pred[r] += coef[s] * column[r];
      }
      curve.push_back(relative_rms_error(pred, f_test));
    }

    if (obs::telemetry_enabled() && !curve.empty()) {
      const auto fold_best = std::min_element(curve.begin(), curve.end());
      obs::emit(obs::CvFoldEvent{
          .solver = solver.name(),
          .fold = fold,
          .path_steps = path.num_steps(),
          .best_lambda = static_cast<Index>(fold_best - curve.begin()) + 1,
          .best_rmse = *fold_best,
          .skipped = false});
    }
  }

  // Average the surviving fold curves over their common length.
  const int used_folds = q - result.skipped_folds;
  RSM_CHECK_MSG(used_folds > 0,
                "every cross-validation fold was degenerate; cannot select "
                "lambda");
  std::size_t common = std::numeric_limits<std::size_t>::max();
  for (const auto& curve : result.fold_curves)
    if (!curve.empty()) common = std::min(common, curve.size());
  RSM_CHECK_MSG(common > 0 && common != std::numeric_limits<std::size_t>::max(),
                "solver produced an empty path in cross-validation");

  result.error_curve.assign(common, Real{0});
  for (const auto& curve : result.fold_curves) {
    if (curve.empty()) continue;
    for (std::size_t t = 0; t < common; ++t)
      result.error_curve[t] += curve[t];
  }
  for (Real& e : result.error_curve) e /= static_cast<Real>(used_folds);

  const auto best = std::min_element(result.error_curve.begin(),
                                     result.error_curve.end());
  result.best_lambda =
      static_cast<Index>(best - result.error_curve.begin()) + 1;
  result.best_error = *best;
  return result;
}

}  // namespace rsm
