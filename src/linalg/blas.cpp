#include "linalg/blas.hpp"

#include <algorithm>

#include "linalg/vector_ops.hpp"
#include "util/thread_pool.hpp"

namespace rsm {

void gemv(const Matrix& a, std::span<const Real> x, std::span<Real> y) {
  RSM_CHECK(static_cast<Index>(x.size()) == a.cols());
  RSM_CHECK(static_cast<Index>(y.size()) == a.rows());
  for (Index r = 0; r < a.rows(); ++r)
    y[static_cast<std::size_t>(r)] = dot(a.row(r), x);
}

namespace {

/// Columns per tile: 1024 doubles keep 8 KiB of y in L1 while rows stream.
constexpr Index kScanTile = 1024;

/// Scans with fewer multiply-adds (rows read * cols) than this, i.e. less
/// than 2 MiB of A read, stay on the calling thread: there the fork-join
/// would cost more than the other cores save. Measured on a 4-core Xeon
/// with K = 100, 400 and 1000 rows, back-to-back scans: 4 parts take
/// 1.1-2.1x the serial time at 2^16, 0.7-1.4x at 2^17 (the crossover), and
/// 0.4-0.9x on every shape from 2^18 up.
constexpr Index kParallelScanWork = Index{1} << 18;

/// Column ranges start on multiples of one 64-byte line of y, so no two
/// threads write the same cache line.
constexpr Index kScanAlign = 8;

}  // namespace

void gemv_transposed_columns(const Matrix& a, std::span<const Real> x,
                             std::span<Real> y, Index begin, Index end,
                             std::span<const Index> rows) {
  const bool every_row = rows.empty();
  const Index k = every_row ? a.rows() : static_cast<Index>(rows.size());
  RSM_CHECK(static_cast<Index>(x.size()) == k);
  RSM_CHECK(static_cast<Index>(y.size()) == a.cols());
  RSM_CHECK(0 <= begin && begin <= end && end <= a.cols());
  const Index stride = a.cols();
  // Start of the i-th summed row: row i of A, or row rows[i].
  const auto row = [&](Index i) {
    const Index r = every_row ? i : rows[static_cast<std::size_t>(i)];
    RSM_DCHECK(0 <= r && r < a.rows());
    return a.data() + r * stride;
  };
  for (Index j0 = begin; j0 < end; j0 += kScanTile) {
    const Index n = std::min(kScanTile, end - j0);
    Real* __restrict yt = y.data() + j0;
    std::fill(yt, yt + n, Real{0});
    Index i = 0;
    for (; i + 4 <= k; i += 4) {
      const Real x0 = x[static_cast<std::size_t>(i)];
      const Real x1 = x[static_cast<std::size_t>(i + 1)];
      const Real x2 = x[static_cast<std::size_t>(i + 2)];
      const Real x3 = x[static_cast<std::size_t>(i + 3)];
      const Real* __restrict a0 = row(i) + j0;
      const Real* __restrict a1 = row(i + 1) + j0;
      const Real* __restrict a2 = row(i + 2) + j0;
      const Real* __restrict a3 = row(i + 3) + j0;
      for (Index j = 0; j < n; ++j) {
        Real t = yt[j];
        t += x0 * a0[j];
        t += x1 * a1[j];
        t += x2 * a2[j];
        t += x3 * a3[j];
        yt[j] = t;
      }
    }
    for (; i < k; ++i) {
      const Real xi = x[static_cast<std::size_t>(i)];
      const Real* __restrict ai = row(i) + j0;
      for (Index j = 0; j < n; ++j) yt[j] += xi * ai[j];
    }
  }
}

void gemv_transposed(const Matrix& a, std::span<const Real> x,
                     std::span<Real> y, std::span<const Index> rows) {
  const Index k = rows.empty() ? a.rows() : static_cast<Index>(rows.size());
  RSM_CHECK(static_cast<Index>(x.size()) == k);
  RSM_CHECK(static_cast<Index>(y.size()) == a.cols());
  const Index cols = a.cols();
  const Index lines = (cols + kScanAlign - 1) / kScanAlign;
  const Index parts = k * cols < kParallelScanWork
                          ? 1
                          : std::min<Index>(parallel_width(), lines);
  if (parts <= 1) {
    gemv_transposed_columns(a, x, y, 0, cols, rows);
    return;
  }
  // The part body captures one reference, so it fits std::function's small
  // buffer and the call allocates nothing.
  const struct {
    const Matrix& a;
    std::span<const Real> x;
    std::span<Real> y;
    std::span<const Index> rows;
    Index cols;
    Index chunk;
  } scan{a, x, y, rows, cols, (lines + parts - 1) / parts * kScanAlign};
  parallel_for(static_cast<int>(parts), [&scan](int part) {
    const Index begin = std::min(scan.cols, part * scan.chunk);
    gemv_transposed_columns(scan.a, scan.x, scan.y, begin,
                            std::min(scan.cols, begin + scan.chunk), scan.rows);
  });
}

void gemm(const Matrix& a, const Matrix& b, Matrix& c) {
  RSM_CHECK(a.cols() == b.rows());
  RSM_CHECK(c.rows() == a.rows() && c.cols() == b.cols());
  c.set_zero();
  constexpr Index kBlock = 64;
  const Index m = a.rows(), k = a.cols(), n = b.cols();
  for (Index i0 = 0; i0 < m; i0 += kBlock) {
    const Index i1 = std::min(i0 + kBlock, m);
    for (Index k0 = 0; k0 < k; k0 += kBlock) {
      const Index k1 = std::min(k0 + kBlock, k);
      for (Index i = i0; i < i1; ++i) {
        Real* crow = c.row(i).data();
        for (Index kk = k0; kk < k1; ++kk) {
          const Real aik = a(i, kk);
          if (aik == Real{0}) continue;
          const Real* brow = b.row(kk).data();
          for (Index j = 0; j < n; ++j) crow[j] += aik * brow[j];
        }
      }
    }
  }
}

Matrix gram(const Matrix& a) {
  const Index n = a.cols();
  Matrix g(n, n);
  // Accumulate row outer products: G += a_r a_r' (upper triangle only).
  for (Index r = 0; r < a.rows(); ++r) {
    std::span<const Real> row = a.row(r);
    for (Index i = 0; i < n; ++i) {
      const Real ai = row[static_cast<std::size_t>(i)];
      if (ai == Real{0}) continue;
      Real* grow = g.row(i).data();
      for (Index j = i; j < n; ++j)
        grow[j] += ai * row[static_cast<std::size_t>(j)];
    }
  }
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < i; ++j) g(i, j) = g(j, i);
  return g;
}

}  // namespace rsm
