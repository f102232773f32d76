#include "core/least_squares.hpp"

#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/qr.hpp"
#include "util/errors.hpp"
#include "util/log.hpp"

namespace rsm {
namespace {

bool all_finite(const std::vector<Real>& v) {
  for (Real x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

}  // namespace

std::vector<Real> LeastSquaresFitter::fit(const Matrix& g,
                                          std::span<const Real> f) const {
  RSM_CHECK(static_cast<Index>(f.size()) == g.rows());
  if (options_.ridge == 0) {
    RSM_CHECK_MSG(g.rows() >= g.cols(),
                  "least squares is under-determined: K=" << g.rows()
                      << " < M=" << g.cols()
                      << " (use a sparse solver instead)");
    // Plain Householder QR first; a rank-deficient design (duplicate or
    // degenerate columns) falls back to the rank-revealing pivoted
    // factorization instead of aborting the fit.
    try {
      std::vector<Real> x = least_squares_solve(g, f);
      if (all_finite(x)) return x;
      RSM_WARN("least squares: non-finite QR solution, "
               "falling back to pivoted QR");
    } catch (const SingularMatrixError& e) {
      RSM_WARN("least squares: " << e.what()
                                 << "; falling back to pivoted QR");
    }
    return least_squares_solve_pivoted(g, f);
  }

  RSM_CHECK_MSG(options_.ridge > 0 || g.rows() >= g.cols(),
                "normal equations under-determined without ridge");
  Matrix gtg = gram(g);
  std::vector<Real> gtf(static_cast<std::size_t>(g.cols()));
  gemv_transposed(g, f, gtf);

  // The normal equations square the condition number, so Cholesky can hit a
  // non-positive pivot on designs QR still handles. Escalate the ridge a few
  // times (restores positive definiteness), then fall back to pivoted QR on
  // the original system.
  Real ridge = options_.ridge;
  for (int attempt = 0; attempt < 3; ++attempt) {
    Matrix damped = gtg;
    for (Index i = 0; i < damped.rows(); ++i) damped(i, i) += ridge;
    try {
      return cholesky_solve(damped, gtf);
    } catch (const SingularMatrixError& e) {
      ridge = ridge > 0 ? ridge * 100 : Real{1e-10};
      RSM_WARN("least squares: " << e.what() << "; retrying with ridge "
                                 << ridge);
    }
  }
  if (g.rows() >= g.cols()) {
    RSM_WARN("least squares: normal equations unsalvageable, "
             "falling back to pivoted QR");
    return least_squares_solve_pivoted(g, f);
  }
  throw NumericalDomainError(
      "normal-equation solve failed and the system is under-determined; "
      "no QR fallback possible");
}

}  // namespace rsm
