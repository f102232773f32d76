// Streaming access to design-matrix columns: the one correlation operator
// under every path solver.
//
// A ColumnSource abstracts "the K x M matrix G" behind two operations —
// correlate a residual against every column, and fetch one column — and
// every PathSolver (OMP, STAR, LAR) fits through them alone. Three sources
// exist:
//  - MaterializedSource: an explicit matrix (the fast path the benches use);
//  - MaterializedSource with a row list: a view of some rows of a matrix,
//    which is how cross-validation hands each fold its training rows
//    without copying them;
//  - DictionarySource: a dictionary evaluated lazily, row by row, in
//    O(N * max_order) memory. The paper targets up to 10^6 model
//    coefficients; at K = 10^3 samples a materialized design matrix would
//    be 8 GB.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "basis/dictionary.hpp"
#include "linalg/matrix.hpp"
#include "util/common.hpp"

namespace rsm {

class ColumnSource {
 public:
  virtual ~ColumnSource() = default;

  [[nodiscard]] virtual Index rows() const = 0;
  [[nodiscard]] virtual Index num_columns() const = 0;

  /// out[j] = G_j' x for every column j. out.size() == num_columns().
  virtual void correlate(std::span<const Real> x,
                         std::span<Real> out) const = 0;

  /// Materializes column j. out.size() == rows().
  virtual void column(Index j, std::span<Real> out) const = 0;
};

/// Wraps an explicit matrix, or a view of some of its rows. `rows` lists
/// the rows of `g` the source exposes, in order: source row i is g's row
/// rows[i]. An empty list means every row of g in order. The matrix and the
/// list are kept by reference; the caller owns both.
class MaterializedSource final : public ColumnSource {
 public:
  explicit MaterializedSource(const Matrix& g,
                              std::span<const Index> rows = {});

  [[nodiscard]] Index rows() const override {
    return rows_.empty() ? g_->rows() : static_cast<Index>(rows_.size());
  }
  [[nodiscard]] Index num_columns() const override { return g_->cols(); }
  void correlate(std::span<const Real> x, std::span<Real> out) const override;
  void column(Index j, std::span<Real> out) const override;

 private:
  const Matrix* g_;
  std::span<const Index> rows_;
};

/// Evaluates dictionary columns on demand: the correlation scan walks the
/// samples row by row with a per-row Hermite factor table, so memory stays
/// O(N * max_order) regardless of M — this is what makes M ~ 10^6 feasible.
class DictionarySource final : public ColumnSource {
 public:
  /// `samples` is the K x N sample matrix (kept by reference; caller owns).
  DictionarySource(std::shared_ptr<const BasisDictionary> dictionary,
                   const Matrix& samples);

  [[nodiscard]] Index rows() const override { return samples_->rows(); }
  [[nodiscard]] Index num_columns() const override {
    return dictionary_->size();
  }
  void correlate(std::span<const Real> x, std::span<Real> out) const override;
  void column(Index j, std::span<Real> out) const override;

 private:
  std::shared_ptr<const BasisDictionary> dictionary_;
  const Matrix* samples_;
};

}  // namespace rsm
