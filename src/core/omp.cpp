#include "core/omp.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/incremental_qr.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/cancellation.hpp"

namespace rsm {

SolverPath OmpSolver::fit_path(const ColumnSource& g,
                               std::span<const Real> f,
                               Index max_steps) const {
  RSM_TRACE_SPAN("omp.fit");
  const Index num_samples = g.rows();
  const Index num_columns = g.num_columns();
  RSM_CHECK(static_cast<Index>(f.size()) == num_samples);
  RSM_CHECK(max_steps > 0);
  max_steps = std::min(max_steps, std::min(num_samples, num_columns));

  SolverPath path;
  path.selection_order.reserve(static_cast<std::size_t>(max_steps));
  path.coefficients.reserve(static_cast<std::size_t>(max_steps));
  path.residual_norms.reserve(static_cast<std::size_t>(max_steps));

  IncrementalQr qr(num_samples, max_steps);
  std::vector<Real> residual(f.begin(), f.end());
  std::vector<Real> correlations(static_cast<std::size_t>(num_columns));
  std::vector<Real> column(static_cast<std::size_t>(num_samples));
  std::vector<bool> selected(static_cast<std::size_t>(num_columns), false);

  for (Index step = 0; step < max_steps; ++step) {
    RSM_TRACE_SPAN("omp.iteration");
    check_cooperative_stop("omp.iteration");
    // Step 3: xi_m = G_m' * Res for all m (the paper's 1/K factor is a
    // monotone scaling that does not affect the argmax).
    {
      RSM_TRACE_SPAN("omp.scan");
      g.correlate(residual, correlations);
    }

    // Step 4: pick the most correlated not-yet-selected column.
    Index best = -1;
    Real best_val = -1;
    for (Index m = 0; m < num_columns; ++m) {
      if (selected[static_cast<std::size_t>(m)]) continue;
      const Real a = std::abs(correlations[static_cast<std::size_t>(m)]);
      if (a > best_val) {
        best_val = a;
        best = m;
      }
    }
    if (best < 0) break;  // everything selected

    // Step 5-6: grow the QR with the new column; if it is numerically
    // dependent on the active set (relative remainder <= 1e-10), mark it
    // and try the next candidate.
    g.column(best, column);
    if (!qr.append_column(column)) {
      selected[static_cast<std::size_t>(best)] = true;
      --step;  // retry this step with the next-best column
      continue;
    }
    selected[static_cast<std::size_t>(best)] = true;
    path.selection_order.push_back(best);

    // Step 6: least-squares coefficients of the whole active set. A column
    // that passed the dependence screen can still poison the triangular
    // solve (near-zero R diagonal -> non-finite coefficients); evict it and
    // retry the step with the next-best candidate instead of emitting a
    // garbage model.
    std::vector<Real> coefficients = qr.solve(f);
    bool finite = true;
    for (Real c : coefficients) {
      if (!std::isfinite(c)) {
        finite = false;
        break;
      }
    }
    if (!finite) {
      qr.remove_column(qr.size() - 1);
      path.selection_order.pop_back();
      --step;  // retry this step with the next-best column
      continue;
    }
    path.coefficients.push_back(std::move(coefficients));

    // Step 7: residual via projection (equals F - G_active * coeffs).
    residual = qr.residual(f);
    const Real res_norm = nrm2(residual);
    path.residual_norms.push_back(res_norm);

    if (obs::telemetry_enabled()) {
      obs::emit(obs::SolverIterationEvent{
          .solver = "OMP",
          .step = step,
          .selected = best,
          .max_correlation = best_val,
          .residual_norm = res_norm,
          .active_count = static_cast<Index>(path.selection_order.size())});
    }
  }
  return path;
}

}  // namespace rsm
