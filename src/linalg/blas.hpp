// Level-2/3 kernels: matrix-vector and blocked matrix-matrix products.
//
// The OMP correlation scan (Step 3 of Algorithm 1) is a GEMV with the design
// matrix transposed, so these kernels dominate solver runtime at the paper's
// problem sizes (M ~ 2*10^4 columns, K ~ 10^3 rows). That scan is the one
// kernel here that runs on every core.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/common.hpp"

namespace rsm {

/// y = A * x.
void gemv(const Matrix& a, std::span<const Real> x, std::span<Real> y);

/// y = A' * x without materializing the transpose: the correlation scan
/// under every solver. `rows` optionally lists the rows of A the scan reads,
/// in the order they are summed (a cross-validation fold's training rows);
/// x[i] then weights row rows[i], and x.size() == rows.size(). An empty
/// list means every row of A in order. The columns are split into
/// contiguous ranges that run in parallel through parallel_for()
/// (util/thread_pool.hpp) once (rows read) * cols reaches a fixed work
/// threshold; smaller scans, and scans called from a pool worker, run on
/// the calling thread.
///
/// Summation order is fixed: every y[j] = ((0 + x[0]*a(r0,j)) + x[1]*a(r1,j))
/// + ... over the listed rows r0, r1, ... in order, by one thread, multiply
/// then add (no FMA). The result is therefore bit-identical for any thread
/// count and any column split, equal to a plain row-by-row scalar loop, and
/// equal to the scan of a matrix holding copies of the listed rows.
void gemv_transposed(const Matrix& a, std::span<const Real> x,
                     std::span<Real> y, std::span<const Index> rows = {});

/// One thread's share of gemv_transposed: writes y[begin, end) only (y is
/// the full a.cols() vector). Walks the range in column tiles that stay in
/// L1 while the rows stream past them 4 at a time, keeping the summation
/// order above, so any split of [0, a.cols()) gives the same bits.
void gemv_transposed_columns(const Matrix& a, std::span<const Real> x,
                             std::span<Real> y, Index begin, Index end,
                             std::span<const Index> rows = {});

/// C = A * B (C must be preallocated to a.rows() x b.cols()). Blocked i-k-j
/// loop order for row-major locality.
void gemm(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A' * A, exploiting symmetry (only the upper triangle is computed then
/// mirrored). Used to form Gram matrices for normal-equation solves.
[[nodiscard]] Matrix gram(const Matrix& a);

}  // namespace rsm
