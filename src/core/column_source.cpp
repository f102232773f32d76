#include "core/column_source.hpp"

#include <algorithm>

#include "basis/hermite.hpp"
#include "linalg/blas.hpp"
#include "linalg/vector_ops.hpp"

namespace rsm {

MaterializedSource::MaterializedSource(const Matrix& g,
                                       std::span<const Index> rows)
    : g_(&g), rows_(rows) {
  for (Index r : rows_) RSM_CHECK(0 <= r && r < g.rows());
}

void MaterializedSource::correlate(std::span<const Real> x,
                                   std::span<Real> out) const {
  gemv_transposed(*g_, x, out, rows_);
}

void MaterializedSource::column(Index j, std::span<Real> out) const {
  RSM_CHECK(static_cast<Index>(out.size()) == rows());
  RSM_CHECK(0 <= j && j < g_->cols());
  for (Index i = 0; i < rows(); ++i)
    out[static_cast<std::size_t>(i)] =
        (*g_)(rows_.empty() ? i : rows_[static_cast<std::size_t>(i)], j);
}

DictionarySource::DictionarySource(
    std::shared_ptr<const BasisDictionary> dictionary, const Matrix& samples)
    : dictionary_(std::move(dictionary)), samples_(&samples) {
  RSM_CHECK(dictionary_ != nullptr);
  RSM_CHECK(samples.cols() == dictionary_->num_variables());
}

void DictionarySource::correlate(std::span<const Real> x,
                                 std::span<Real> out) const {
  const Index k = rows();
  const Index m = num_columns();
  RSM_CHECK(static_cast<Index>(x.size()) == k);
  RSM_CHECK(static_cast<Index>(out.size()) == m);
  const int max_order = dictionary_->max_order();
  const Index n = dictionary_->num_variables();

  std::fill(out.begin(), out.end(), Real{0});
  // Row-at-a-time accumulation: for each sample row build the per-variable
  // Hermite table once (O(N * order)), then add x[k] * g_m(sample) into
  // every slot. Memory: one table, no K x M block at all.
  std::vector<Real> table(static_cast<std::size_t>(n * (max_order + 1)));
  std::vector<Real> orders(static_cast<std::size_t>(max_order + 1));
  for (Index r = 0; r < k; ++r) {
    const Real weight = x[static_cast<std::size_t>(r)];
    if (weight == Real{0}) continue;
    std::span<const Real> sample = samples_->row(r);
    for (Index v = 0; v < n; ++v) {
      hermite_normalized_all(max_order, sample[static_cast<std::size_t>(v)],
                             orders);
      std::copy(orders.begin(), orders.end(),
                table.begin() + v * (max_order + 1));
    }
    for (Index j = 0; j < m; ++j) {
      Real product = 1;
      for (const IndexTerm& t : dictionary_->index(j).terms())
        product *= table[static_cast<std::size_t>(
            t.variable * (max_order + 1) + t.order)];
      out[static_cast<std::size_t>(j)] += weight * product;
    }
  }
}

void DictionarySource::column(Index j, std::span<Real> out) const {
  RSM_CHECK(static_cast<Index>(out.size()) == rows());
  for (Index r = 0; r < rows(); ++r)
    out[static_cast<std::size_t>(r)] =
        dictionary_->evaluate(j, samples_->row(r));
}

}  // namespace rsm
