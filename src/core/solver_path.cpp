#include "core/solver_path.hpp"

namespace rsm {

std::vector<Index> SolverPath::support(Index t) const {
  RSM_CHECK(t >= 0 && t < num_steps());
  const auto count = coefficients[static_cast<std::size_t>(t)].size();
  RSM_CHECK(count <= selection_order.size());
  return {selection_order.begin(),
          selection_order.begin() + static_cast<std::ptrdiff_t>(count)};
}

std::vector<Real> SolverPath::dense_coefficients(Index t,
                                                 Index num_columns) const {
  std::vector<Real> dense(static_cast<std::size_t>(num_columns), Real{0});
  const std::vector<Index> sup = support(t);
  const std::vector<Real>& coef = coefficients[static_cast<std::size_t>(t)];
  RSM_CHECK(sup.size() == coef.size());
  for (std::size_t s = 0; s < sup.size(); ++s) {
    RSM_CHECK(sup[s] >= 0 && sup[s] < num_columns);
    // Accumulate (not assign): STAR may select the same column twice and
    // its per-step contributions add up.
    dense[static_cast<std::size_t>(sup[s])] += coef[s];
  }
  return dense;
}

SolverPath PathSolver::fit_path(const Matrix& g, std::span<const Real> f,
                                Index max_steps) const {
  return fit_path(MaterializedSource(g), f, max_steps);
}

}  // namespace rsm
