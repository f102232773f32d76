#include "core/cosamp.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace rsm {
namespace {

/// Indices of the `count` largest |values|.
std::vector<Index> top_indices(std::span<const Real> values, Index count) {
  std::vector<Index> order(values.size());
  std::iota(order.begin(), order.end(), Index{0});
  count = std::min<Index>(count, static_cast<Index>(values.size()));
  std::partial_sort(order.begin(), order.begin() + count, order.end(),
                    [&](Index a, Index b) {
                      return std::abs(values[static_cast<std::size_t>(a)]) >
                             std::abs(values[static_cast<std::size_t>(b)]);
                    });
  order.resize(static_cast<std::size_t>(count));
  return order;
}

/// LS fit of f on the columns `support` of g; returns coefficients aligned
/// with `support`. Rank-deficient supports fall back to a tiny ridge.
std::vector<Real> ls_on_support(const ColumnSource& g,
                                std::span<const Real> f,
                                std::span<const Index> support) {
  Matrix g_sup(g.rows(), static_cast<Index>(support.size()));
  std::vector<Real> column(static_cast<std::size_t>(g.rows()));
  for (std::size_t j = 0; j < support.size(); ++j) {
    g.column(support[j], column);
    g_sup.set_col(static_cast<Index>(j), column);
  }
  QrFactorization qr(g_sup);
  if (!qr.rank_deficient()) return qr.solve(f);
  // Degenerate candidate set (duplicated columns): ridge-regularized
  // normal equations keep the iteration moving.
  Matrix gram_m = gram(g_sup);
  for (Index i = 0; i < gram_m.rows(); ++i)
    gram_m(i, i) += 1e-10 * static_cast<Real>(g.rows());
  std::vector<Real> gtf(support.size());
  gemv_transposed(g_sup, f, gtf);
  return QrFactorization(gram_m).solve(gtf);
}

}  // namespace

SolverPath CosampSolver::fit_at_sparsity(const ColumnSource& g,
                                         std::span<const Real> f,
                                         Index sparsity) const {
  RSM_TRACE_SPAN("cosamp.fit");
  const Index k = g.rows();
  const Index m = g.num_columns();
  RSM_CHECK(static_cast<Index>(f.size()) == k);
  RSM_CHECK(sparsity > 0);
  sparsity = std::min(sparsity, std::min(k / 2, m));

  std::vector<Real> residual(f.begin(), f.end());
  std::vector<Real> corr(static_cast<std::size_t>(m));
  std::vector<Real> column(static_cast<std::size_t>(k));
  std::vector<Index> support;
  std::vector<Real> coef;
  Real prev_res_norm = nrm2(f);

  for (int it = 0; it < options_.max_iterations; ++it) {
    RSM_TRACE_SPAN("cosamp.iteration");
    // Identify: up to 2s largest proxy correlations, merged with the
    // current support — capped so the merged candidate set stays solvable
    // by LS (at most k columns).
    g.correlate(residual, corr);
    const Index proposal_size =
        std::min<Index>(2 * sparsity,
                        k - static_cast<Index>(support.size()));
    if (proposal_size <= 0) break;
    const std::vector<Index> proposal = top_indices(corr, proposal_size);
    std::set<Index> merged(support.begin(), support.end());
    merged.insert(proposal.begin(), proposal.end());
    const std::vector<Index> candidates(merged.begin(), merged.end());
    if (candidates.empty()) break;

    // Estimate: LS on the merged support; prune to the s largest.
    const std::vector<Real> b = ls_on_support(g, f, candidates);
    const std::vector<Index> keep = top_indices(b, sparsity);
    std::vector<Index> new_support;
    for (Index pos : keep)
      new_support.push_back(candidates[static_cast<std::size_t>(pos)]);
    std::sort(new_support.begin(), new_support.end());

    // Re-fit on the pruned support and update the residual.
    coef = ls_on_support(g, f, new_support);
    residual.assign(f.begin(), f.end());
    for (std::size_t j = 0; j < new_support.size(); ++j) {
      g.column(new_support[j], column);
      axpy(-coef[j], column, residual);
    }
    support = std::move(new_support);

    const Real res_norm = nrm2(residual);
    if (obs::telemetry_enabled()) {
      // CoSaMP reselects a whole support per iteration, so `selected` is
      // meaningless; report the proxy's strongest correlation instead.
      obs::emit(obs::SolverIterationEvent{
          .solver = "CoSaMP",
          .step = static_cast<Index>(it),
          .selected = -1,
          .max_correlation = max_abs(corr),
          .residual_norm = res_norm,
          .active_count = static_cast<Index>(support.size())});
    }
    if (res_norm >= prev_res_norm * (1 - options_.stall_tolerance)) break;
    prev_res_norm = res_norm;
  }

  SolverPath path;
  path.active_sets.push_back(support);
  path.coefficients.push_back(coef);
  path.selection_order.push_back(support.empty() ? -1 : support.back());
  path.residual_norms.push_back(nrm2(residual));
  return path;
}

SolverPath CosampSolver::fit_path(const ColumnSource& g,
                                  std::span<const Real> f,
                                  Index max_steps) const {
  RSM_CHECK(max_steps > 0);
  SolverPath path;
  for (Index s = 1; s <= max_steps; ++s) {
    SolverPath one = fit_at_sparsity(g, f, s);
    if (one.num_steps() == 0) break;
    path.active_sets.push_back(std::move(one.active_sets[0]));
    path.coefficients.push_back(std::move(one.coefficients[0]));
    path.selection_order.push_back(one.selection_order[0]);
    path.residual_norms.push_back(one.residual_norms[0]);
  }
  return path;
}

}  // namespace rsm
