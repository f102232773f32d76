#include "core/lar.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/cancellation.hpp"

namespace rsm {
namespace {

/// Incrementally grown Cholesky of the Gram matrix of a set of unit-norm
/// columns (O(p^2) per appended column).
class ActiveGramCholesky {
 public:
  explicit ActiveGramCholesky(Index max_size) : l_(max_size, max_size) {}

  [[nodiscard]] Index size() const { return p_; }

  /// Appends a column with the given cross products g = X_A' x_new and
  /// squared norm. Returns false if the new column is numerically in the
  /// span of the active set.
  [[nodiscard]] bool append(std::span<const Real> cross, Real squared_norm) {
    RSM_CHECK(static_cast<Index>(cross.size()) == p_);
    // Solve L l12 = cross.
    std::vector<Real> l12(static_cast<std::size_t>(p_));
    for (Index i = 0; i < p_; ++i) {
      Real s = cross[static_cast<std::size_t>(i)];
      for (Index k = 0; k < i; ++k)
        s -= l_(i, k) * l12[static_cast<std::size_t>(k)];
      l12[static_cast<std::size_t>(i)] = s / l_(i, i);
    }
    Real d = squared_norm;
    for (Real v : l12) d -= v * v;
    if (d <= Real{1e-12} * squared_norm) return false;
    for (Index i = 0; i < p_; ++i) l_(p_, i) = l12[static_cast<std::size_t>(i)];
    l_(p_, p_) = std::sqrt(d);
    ++p_;
    return true;
  }

  /// Solves (X_A' X_A) v = rhs.
  [[nodiscard]] std::vector<Real> solve(std::span<const Real> rhs) const {
    RSM_CHECK(static_cast<Index>(rhs.size()) == p_);
    std::vector<Real> v(rhs.begin(), rhs.end());
    for (Index i = 0; i < p_; ++i) {
      Real s = v[static_cast<std::size_t>(i)];
      for (Index k = 0; k < i; ++k)
        s -= l_(i, k) * v[static_cast<std::size_t>(k)];
      v[static_cast<std::size_t>(i)] = s / l_(i, i);
    }
    for (Index i = p_ - 1; i >= 0; --i) {
      Real s = v[static_cast<std::size_t>(i)];
      for (Index k = i + 1; k < p_; ++k)
        s -= l_(k, i) * v[static_cast<std::size_t>(k)];
      v[static_cast<std::size_t>(i)] = s / l_(i, i);
    }
    return v;
  }

 private:
  Index p_ = 0;
  Matrix l_;
};

/// Stop when the largest absolute correlation falls below this times its
/// initial value.
constexpr Real kCorrelationTolerance = 1e-12;

}  // namespace

SolverPath LarSolver::fit_path(const ColumnSource& g,
                               std::span<const Real> f,
                               Index max_steps) const {
  RSM_TRACE_SPAN("lar.fit");
  const Index num_samples = g.rows();
  const Index num_columns = g.num_columns();
  RSM_CHECK(static_cast<Index>(f.size()) == num_samples);
  RSM_CHECK(max_steps > 0);
  max_steps = std::min(max_steps, std::min(num_samples - 1, num_columns));

  // The copy of G the path runs on, columns normalized to unit 2-norm.
  // Zero columns are excluded outright (and copied unscaled). Columns are
  // read kBlock at a time and stored row by row, so x is written in runs of
  // kBlock instead of one strided element per row and column (storing a
  // column at a time made a K = 1000, M = 21311 fit 15% slower on a 4-core
  // Xeon).
  constexpr Index kBlock = 32;
  Matrix x(num_samples, num_columns);
  std::vector<Real> scale(static_cast<std::size_t>(num_columns), Real{0});
  std::vector<bool> usable(static_cast<std::size_t>(num_columns), false);
  std::vector<Real> block(static_cast<std::size_t>(kBlock * num_samples));
  for (Index j0 = 0; j0 < num_columns; j0 += kBlock) {
    const Index width = std::min(kBlock, num_columns - j0);
    for (Index b = 0; b < width; ++b) {
      const std::span<Real> col(block.data() + b * num_samples,
                                static_cast<std::size_t>(num_samples));
      g.column(j0 + b, col);
      const Real norm = nrm2(col);
      if (norm <= Real{1e-300}) continue;
      scale[static_cast<std::size_t>(j0 + b)] = norm;
      usable[static_cast<std::size_t>(j0 + b)] = true;
      const Real inv = Real{1} / norm;
      for (Real& v : col) v *= inv;
    }
    for (Index r = 0; r < num_samples; ++r)
      for (Index b = 0; b < width; ++b)
        x(r, j0 + b) = block[static_cast<std::size_t>(b * num_samples + r)];
  }

  SolverPath path;

  std::vector<Real> mu(static_cast<std::size_t>(num_samples), Real{0});
  std::vector<Real> residual(f.begin(), f.end());
  std::vector<Real> c(static_cast<std::size_t>(num_columns));
  std::vector<Real> a(static_cast<std::size_t>(num_columns));
  std::vector<Real> u(static_cast<std::size_t>(num_samples));

  std::vector<Index> active;
  std::vector<Real> signs;
  std::vector<Real> beta;  // coefficients in normalized space, active order
  std::vector<bool> in_active(static_cast<std::size_t>(num_columns), false);
  ActiveGramCholesky chol(std::min(num_samples, max_steps + 1));

  gemv_transposed(x, residual, c);
  const Real c0 = max_abs(c);
  if (c0 <= Real{0}) return path;

  // c = X' residual is current until the residual moves: event 0 and any
  // event after a collinear skip reuse it instead of rescanning.
  bool c_current = true;
  // Each loop iteration admits one column and moves along the equiangular
  // direction, or skips a collinear candidate.
  for (Index event = 0; event < 4 * max_steps + 8; ++event) {
    RSM_TRACE_SPAN("lar.step");
    check_cooperative_stop("lar.step");
    if (static_cast<Index>(active.size()) >= max_steps) break;

    if (!c_current) {
      RSM_TRACE_SPAN("lar.scan");
      gemv_transposed(x, residual, c);
      c_current = true;
    }

    // Admit the most correlated inactive column.
    Index best = -1;
    Real best_val = kCorrelationTolerance * c0;
    for (Index j = 0; j < num_columns; ++j) {
      if (in_active[static_cast<std::size_t>(j)] ||
          !usable[static_cast<std::size_t>(j)])
        continue;
      const Real v = std::abs(c[static_cast<std::size_t>(j)]);
      if (v > best_val) {
        best_val = v;
        best = j;
      }
    }
    if (best < 0) break;  // correlations exhausted

    // Cross products with current active columns.
    std::vector<Real> cross(active.size());
    const std::vector<Real> new_col = x.col(best);
    for (std::size_t i = 0; i < active.size(); ++i)
      cross[i] = dot(x.col(active[i]), new_col);
    if (!chol.append(cross, Real{1})) {
      usable[static_cast<std::size_t>(best)] = false;  // collinear; skip
      continue;
    }
    active.push_back(best);
    in_active[static_cast<std::size_t>(best)] = true;
    signs.push_back(c[static_cast<std::size_t>(best)] >= 0 ? Real{1}
                                                           : Real{-1});
    beta.push_back(0);

    // Equiangular direction: v = Gram^{-1} s;  A = 1/sqrt(s'v);  the move in
    // coefficient space is d = A v, in sample space u = X_A d.
    const std::vector<Real> v = chol.solve(signs);
    Real s_dot_v = 0;
    for (std::size_t i = 0; i < signs.size(); ++i) s_dot_v += signs[i] * v[i];
    RSM_CHECK_MSG(s_dot_v > 0, "LAR: non-positive equiangular normalization");
    const Real a_norm = Real{1} / std::sqrt(s_dot_v);
    std::vector<Real> d(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) d[i] = a_norm * v[i];

    std::fill(u.begin(), u.end(), Real{0});
    for (std::size_t i = 0; i < active.size(); ++i)
      axpy(d[i], x.col(active[i]), u);
    {
      RSM_TRACE_SPAN("lar.scan");
      gemv_transposed(x, u, a);
    }

    // Current common correlation magnitude of the active set.
    Real cmax = 0;
    for (Index j : active)
      cmax = std::max(cmax, std::abs(c[static_cast<std::size_t>(j)]));
    if (cmax <= kCorrelationTolerance * c0) break;

    // Step length to the next tie (Efron et al., eq. 2.13).
    Real gamma = cmax / a_norm;  // full LS step if nothing ties
    for (Index j = 0; j < num_columns; ++j) {
      if (in_active[static_cast<std::size_t>(j)] ||
          !usable[static_cast<std::size_t>(j)])
        continue;
      const Real cj = c[static_cast<std::size_t>(j)];
      const Real aj = a[static_cast<std::size_t>(j)];
      const Real d1 = a_norm - aj;
      const Real d2 = a_norm + aj;
      if (d1 > Real{1e-14}) {
        const Real t = (cmax - cj) / d1;
        if (t > Real{1e-14} && t < gamma) gamma = t;
      }
      if (d2 > Real{1e-14}) {
        const Real t = (cmax + cj) / d2;
        if (t > Real{1e-14} && t < gamma) gamma = t;
      }
    }

    for (std::size_t i = 0; i < active.size(); ++i) beta[i] += gamma * d[i];
    axpy(gamma, u, mu);
    residual = vsub(f, mu);
    c_current = false;

    // Record the step: the column admitted this step + de-normalized
    // coefficients of the whole active set (its prefix of selection_order).
    std::vector<Real> denorm(active.size());
    for (std::size_t i = 0; i < active.size(); ++i)
      denorm[i] = beta[i] / scale[static_cast<std::size_t>(active[i])];
    path.coefficients.push_back(std::move(denorm));
    path.selection_order.push_back(best);
    path.residual_norms.push_back(nrm2(residual));

    if (obs::telemetry_enabled()) {
      obs::emit(obs::SolverIterationEvent{
          .solver = "LAR",
          .step = static_cast<Index>(path.coefficients.size()) - 1,
          .selected = path.selection_order.back(),
          .max_correlation = cmax,
          .residual_norm = path.residual_norms.back(),
          .active_count = static_cast<Index>(active.size())});
    }

    if (gamma >= cmax / a_norm - Real{1e-14}) {
      // Took the full least-squares step: correlations are (numerically)
      // zero, the path is complete.
      break;
    }
  }
  return path;
}

}  // namespace rsm
