#include "checks.hpp"

#include <cmath>
#include <sstream>

namespace perfbench {
namespace {

using rsm::Index;
using rsm::Matrix;
using rsm::Real;
using rsm::SparseModel;

std::string describe(const char* what, double value, double limit) {
  std::ostringstream os;
  os.precision(6);
  os << what << " = " << value << " (limit " << limit << ")";
  return os.str();
}

/// r = f - G a over the model's terms.
std::vector<double> residual(const Matrix& g, std::span<const Real> f,
                             const SparseModel& model) {
  std::vector<double> r(f.begin(), f.end());
  for (Index k = 0; k < g.rows(); ++k) {
    double fitted = 0;
    for (const rsm::ModelTerm& t : model.terms())
      fitted += t.coefficient * g(k, t.basis_index);
    r[static_cast<std::size_t>(k)] -= fitted;
  }
  return r;
}

/// G' r and the column 2-norms of G, one row-major pass.
void correlations(const Matrix& g, const std::vector<double>& r,
                  std::vector<double>& dots, std::vector<double>& norms) {
  const std::size_t m = static_cast<std::size_t>(g.cols());
  dots.assign(m, 0.0);
  norms.assign(m, 0.0);
  for (Index k = 0; k < g.rows(); ++k) {
    const Real* row = g.data() + static_cast<std::size_t>(k) * m;
    const double rk = r[static_cast<std::size_t>(k)];
    for (std::size_t j = 0; j < m; ++j) {
      dots[j] += row[j] * rk;
      norms[j] += row[j] * row[j];
    }
  }
  for (double& n : norms) n = std::sqrt(n);
}

}  // namespace

std::vector<std::string> check_model(const SparseModel& model,
                                     Index max_lambda) {
  std::vector<std::string> failures;
  for (const rsm::ModelTerm& t : model.terms())
    if (!std::isfinite(t.coefficient)) {
      failures.push_back("non-finite coefficient");
      break;
    }
  const Index lambda = model.num_terms();
  if (lambda < 1 || lambda > max_lambda)
    failures.push_back(describe("lambda", static_cast<double>(lambda),
                                static_cast<double>(max_lambda)));
  return failures;
}

std::vector<std::string> check_omp(const Matrix& g, std::span<const Real> f,
                                   const SparseModel& model) {
  const std::vector<double> r = residual(g, f, model);
  double r_norm = 0;
  for (const double v : r) r_norm += v * v;
  r_norm = std::sqrt(r_norm);
  double worst = 0;
  for (const rsm::ModelTerm& t : model.terms()) {
    double dot = 0, norm = 0;
    for (Index k = 0; k < g.rows(); ++k) {
      const double x = g(k, t.basis_index);
      dot += x * r[static_cast<std::size_t>(k)];
      norm += x * x;
    }
    const double denom = std::sqrt(norm) * r_norm;
    if (denom > 0) worst = std::max(worst, std::abs(dot) / denom);
  }
  if (worst <= kOrthogonalityTol) return {};
  return {describe("OMP residual/selected-column cosine", worst,
                   kOrthogonalityTol)};
}

std::vector<std::string> check_lar(const Matrix& g, std::span<const Real> f,
                                   const SparseModel& model) {
  const std::vector<double> r = residual(g, f, model);
  std::vector<double> dots, norms;
  correlations(g, r, dots, norms);
  std::vector<bool> active(dots.size(), false);
  for (const rsm::ModelTerm& t : model.terms())
    active[static_cast<std::size_t>(t.basis_index)] = true;
  double active_max = 0, active_min = INFINITY, inactive_max = 0;
  for (std::size_t j = 0; j < dots.size(); ++j) {
    if (norms[j] <= 0) continue;
    const double c = std::abs(dots[j]) / norms[j];
    if (active[j]) {
      active_max = std::max(active_max, c);
      active_min = std::min(active_min, c);
    } else {
      inactive_max = std::max(inactive_max, c);
    }
  }
  if (!(active_max > 0)) return {"LAR active correlations vanished"};
  const double spread = (active_max - active_min) / active_max;
  const double excess = inactive_max / active_max - 1;
  std::vector<std::string> failures;
  if (!(spread <= kEquiangularTol))
    failures.push_back(describe("LAR active |c_j| spread", spread, kEquiangularTol));
  if (!(excess <= kEquiangularTol))
    failures.push_back(describe("LAR inactive |c_j| excess over c_max", excess,
                                kEquiangularTol));
  return failures;
}

std::vector<std::string> check_test_error(double test_error, double bound) {
  if (std::isfinite(test_error) && test_error <= bound) return {};
  return {describe("test error", test_error, bound)};
}

}  // namespace perfbench
