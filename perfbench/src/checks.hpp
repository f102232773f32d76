// Output checks, computed from outside the solvers.
//
// Every check reads only public outputs — the fitted SparseModel (the final
// step of the solver's SolverPath, de-normalized to design-matrix scale) and
// the training design matrix G — and recomputes what it needs with plain
// loops of its own, never through linalg/blas. A later rewrite of the scan
// kernel or of a solver is therefore checked by code it cannot share a bug
// with. Each check that fails names itself in the returned list.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "linalg/matrix.hpp"

namespace perfbench {

/// Tolerances. OMP's Step 6 is an exact least-squares refit, so the cosine
/// between the residual and a selected column is rounding-level (~1e-13 on
/// these problems); an exact LAR path keeps its ties to ~1e-12 relative. A
/// wrong direction, a stale residual or a missed tie moves these by orders
/// of magnitude past 1e-6.
inline constexpr double kOrthogonalityTol = 1e-6;
inline constexpr double kEquiangularTol = 1e-6;

/// Every coefficient finite and lambda (= number of terms) in
/// [1, max_lambda].
std::vector<std::string> check_model(const rsm::SparseModel& model,
                                     rsm::Index max_lambda);

/// OMP: the final residual is orthogonal to every selected column, i.e.
/// |g_j . r| / (||g_j|| ||r||) is rounding-level for each selected j.
std::vector<std::string> check_omp(const rsm::Matrix& g,
                                   std::span<const rsm::Real> f,
                                   const rsm::SparseModel& model);

/// LAR: with c_j = g_j . r / ||g_j|| (LAR's unit-norm column scaling), the
/// active |c_j| agree and no inactive |c_j| exceeds them.
std::vector<std::string> check_lar(const rsm::Matrix& g,
                                   std::span<const rsm::Real> f,
                                   const rsm::SparseModel& model);

/// Held-out relative error within the workload's stated bound.
std::vector<std::string> check_test_error(double test_error, double bound);

}  // namespace perfbench
