#include "core/star.hpp"

#include <cmath>
#include <vector>

#include "linalg/vector_ops.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/cancellation.hpp"

namespace rsm {

SolverPath StarSolver::fit_path(const ColumnSource& g,
                                std::span<const Real> f,
                                Index max_steps) const {
  RSM_TRACE_SPAN("star.fit");
  const Index num_samples = g.rows();
  const Index num_columns = g.num_columns();
  RSM_CHECK(static_cast<Index>(f.size()) == num_samples);
  RSM_CHECK(max_steps > 0);

  SolverPath path;
  std::vector<Real> residual(f.begin(), f.end());
  std::vector<Real> correlations(static_cast<std::size_t>(num_columns));
  std::vector<Real> column(static_cast<std::size_t>(num_samples));

  // Running per-column coefficient accumulator (duplicated selections add).
  std::vector<Real> step_coefficients;  // aligned with selection_order

  for (Index step = 0; step < max_steps; ++step) {
    RSM_TRACE_SPAN("star.iteration");
    check_cooperative_stop("star.iteration");
    {
      RSM_TRACE_SPAN("star.scan");
      g.correlate(residual, correlations);
    }
    const Index best = argmax_abs(correlations);
    if (best < 0) break;

    // Coefficient = inner-product estimate (eq. (14)/(18)): the projection
    // of the residual on the column, normalized by the column's squared
    // norm. With orthonormal basis functions ||G_m||^2 ~= K, so this matches
    // the paper's 1/K scaling while staying exact for finite samples.
    g.column(best, column);
    const Real denom = dot(column, column);
    if (denom <= Real{0}) break;
    const Real alpha = correlations[static_cast<std::size_t>(best)] / denom;

    path.selection_order.push_back(best);
    step_coefficients.push_back(alpha);
    path.coefficients.push_back(step_coefficients);

    axpy(-alpha, column, residual);
    path.residual_norms.push_back(nrm2(residual));

    if (obs::telemetry_enabled()) {
      obs::emit(obs::SolverIterationEvent{
          .solver = "STAR",
          .step = step,
          .selected = best,
          .max_correlation =
              std::abs(correlations[static_cast<std::size_t>(best)]),
          .residual_norm = path.residual_norms.back(),
          .active_count = static_cast<Index>(path.selection_order.size())});
    }
  }
  return path;
}

}  // namespace rsm
