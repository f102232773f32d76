#include "core/somp.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/incremental_qr.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace rsm {

SompResult SompSolver::fit(const Matrix& g, const Matrix& responses,
                           Index max_terms) const {
  RSM_TRACE_SPAN("somp.fit");
  const Index k = g.rows();
  const Index m = g.cols();
  const Index num_responses = responses.cols();
  RSM_CHECK(responses.rows() == k);
  RSM_CHECK(max_terms > 0 && num_responses > 0);
  max_terms = std::min(max_terms, std::min(k, m));

  // Normalize each response by its 2-norm so large-magnitude metrics do not
  // dominate the joint score.
  std::vector<std::vector<Real>> residuals(
      static_cast<std::size_t>(num_responses));
  std::vector<Real> response_scale(static_cast<std::size_t>(num_responses));
  for (Index r = 0; r < num_responses; ++r) {
    residuals[static_cast<std::size_t>(r)] = responses.col(r);
    response_scale[static_cast<std::size_t>(r)] = std::max(
        nrm2(residuals[static_cast<std::size_t>(r)]), Real{1e-300});
  }

  IncrementalQr qr(k, max_terms);
  std::vector<bool> selected(static_cast<std::size_t>(m), false);
  SompResult result;

  for (Index step = 0; step < max_terms; ++step) {
    RSM_TRACE_SPAN("somp.iteration");
    // Joint score per column: sum_r (G_j' res_r / ||f_r||)^2. Response
    // normalization keeps large-magnitude metrics from dominating; columns
    // are NOT norm-normalized, matching the paper's inner-product criterion
    // (eq. 14) — so with a single response the selection sequence is
    // exactly OMP's.
    Index best = -1;
    Real best_score = -1;
    for (Index j = 0; j < m; ++j) {
      if (selected[static_cast<std::size_t>(j)]) continue;
      const std::vector<Real> col = g.col(j);
      Real score = 0;
      for (Index r = 0; r < num_responses; ++r) {
        const Real c = dot(col, residuals[static_cast<std::size_t>(r)]) /
                       response_scale[static_cast<std::size_t>(r)];
        score += c * c;
      }
      if (score > best_score) {
        best_score = score;
        best = j;
      }
    }
    if (best < 0) break;

    if (!qr.append_column(g.col(best))) {
      selected[static_cast<std::size_t>(best)] = true;
      --step;
      continue;
    }
    selected[static_cast<std::size_t>(best)] = true;
    result.support.push_back(best);

    // Re-fit every response on the shared support; update residuals.
    for (Index r = 0; r < num_responses; ++r)
      residuals[static_cast<std::size_t>(r)] = qr.residual(responses.col(r));

    if (obs::telemetry_enabled()) {
      // Joint residual norm across the (normalized) responses.
      Real joint = 0;
      for (Index r = 0; r < num_responses; ++r) {
        const Real norm = nrm2(residuals[static_cast<std::size_t>(r)]) /
                          response_scale[static_cast<std::size_t>(r)];
        joint += norm * norm;
      }
      obs::emit(obs::SolverIterationEvent{
          .solver = "SOMP",
          .step = step,
          .selected = best,
          .max_correlation = std::sqrt(best_score),
          .residual_norm = std::sqrt(joint),
          .active_count = static_cast<Index>(result.support.size())});
    }
  }

  result.coefficients.resize(static_cast<std::size_t>(num_responses));
  result.residual_norms.resize(static_cast<std::size_t>(num_responses));
  for (Index r = 0; r < num_responses; ++r) {
    result.coefficients[static_cast<std::size_t>(r)] =
        qr.solve(responses.col(r));
    result.residual_norms[static_cast<std::size_t>(r)] =
        nrm2(residuals[static_cast<std::size_t>(r)]);
  }
  return result;
}

}  // namespace rsm
