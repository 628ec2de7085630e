#include "linalg/sparse_matrix.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace ensemfdet {

CsrMatrix::CsrMatrix(int64_t rows, int64_t cols,
                     std::span<const int64_t> coo_rows,
                     std::span<const int64_t> coo_cols,
                     std::span<const double> coo_vals)
    : rows_(rows), cols_(cols) {
  ENSEMFDET_CHECK(coo_rows.size() == coo_cols.size() &&
                  coo_rows.size() == coo_vals.size());
  const size_t nnz_in = coo_rows.size();
  for (size_t i = 0; i < nnz_in; ++i) {
    ENSEMFDET_CHECK(coo_rows[i] >= 0 && coo_rows[i] < rows &&
                    coo_cols[i] >= 0 && coo_cols[i] < cols)
        << "triplet (" << coo_rows[i] << "," << coo_cols[i]
        << ") out of bounds";
  }

  // Sort triplet order by (row, col) to merge duplicates and build CSR.
  std::vector<size_t> order(nnz_in);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (coo_rows[a] != coo_rows[b]) return coo_rows[a] < coo_rows[b];
    return coo_cols[a] < coo_cols[b];
  });

  row_offsets_.assign(static_cast<size_t>(rows) + 1, 0);
  col_indices_.reserve(nnz_in);
  vals_.reserve(nnz_in);
  for (size_t i = 0; i < nnz_in;) {
    size_t a = order[i];
    double sum = coo_vals[a];
    size_t j = i + 1;
    while (j < nnz_in && coo_rows[order[j]] == coo_rows[a] &&
           coo_cols[order[j]] == coo_cols[a]) {
      sum += coo_vals[order[j]];
      ++j;
    }
    col_indices_.push_back(coo_cols[a]);
    vals_.push_back(sum);
    ++row_offsets_[static_cast<size_t>(coo_rows[a]) + 1];
    i = j;
  }
  for (int64_t r = 0; r < rows; ++r) {
    row_offsets_[static_cast<size_t>(r) + 1] +=
        row_offsets_[static_cast<size_t>(r)];
  }
}

void CsrMatrix::Multiply(std::span<const double> x,
                         std::span<double> y) const {
  ENSEMFDET_DCHECK(static_cast<int64_t>(x.size()) == cols_);
  ENSEMFDET_DCHECK(static_cast<int64_t>(y.size()) == rows_);
  for (int64_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (int64_t i = row_offsets_[static_cast<size_t>(r)];
         i < row_offsets_[static_cast<size_t>(r) + 1]; ++i) {
      sum += vals_[static_cast<size_t>(i)] *
             x[static_cast<size_t>(col_indices_[static_cast<size_t>(i)])];
    }
    y[static_cast<size_t>(r)] = sum;
  }
}

void CsrMatrix::MultiplyTranspose(std::span<const double> x,
                                  std::span<double> y) const {
  ENSEMFDET_DCHECK(static_cast<int64_t>(x.size()) == rows_);
  ENSEMFDET_DCHECK(static_cast<int64_t>(y.size()) == cols_);
  std::fill(y.begin(), y.end(), 0.0);
  for (int64_t r = 0; r < rows_; ++r) {
    double xr = x[static_cast<size_t>(r)];
    if (xr == 0.0) continue;
    for (int64_t i = row_offsets_[static_cast<size_t>(r)];
         i < row_offsets_[static_cast<size_t>(r) + 1]; ++i) {
      y[static_cast<size_t>(col_indices_[static_cast<size_t>(i)])] +=
          vals_[static_cast<size_t>(i)] * xr;
    }
  }
}

DenseMatrix CsrMatrix::MultiplyDense(const DenseMatrix& x) const {
  ENSEMFDET_CHECK(x.rows() == cols_);
  DenseMatrix out(rows_, x.cols());
  for (int64_t c = 0; c < x.cols(); ++c) Multiply(x.col(c), out.col(c));
  return out;
}

DenseMatrix CsrMatrix::MultiplyTransposeDense(const DenseMatrix& x) const {
  ENSEMFDET_CHECK(x.rows() == rows_);
  DenseMatrix out(cols_, x.cols());
  for (int64_t c = 0; c < x.cols(); ++c) {
    MultiplyTranspose(x.col(c), out.col(c));
  }
  return out;
}

std::vector<double> CsrMatrix::RowNorms() const {
  std::vector<double> norms(static_cast<size_t>(rows_), 0.0);
  for (int64_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (int64_t i = row_offsets_[static_cast<size_t>(r)];
         i < row_offsets_[static_cast<size_t>(r) + 1]; ++i) {
      sum += vals_[static_cast<size_t>(i)] * vals_[static_cast<size_t>(i)];
    }
    norms[static_cast<size_t>(r)] = std::sqrt(sum);
  }
  return norms;
}

double CsrMatrix::FrobeniusNormSquared() const {
  double sum = 0.0;
  for (double v : vals_) sum += v * v;
  return sum;
}

CsrMatrix AdjacencyMatrix(const CsrGraph& graph) {
  std::vector<int64_t> rows, cols;
  std::vector<double> vals;
  rows.reserve(static_cast<size_t>(graph.num_edges()));
  cols.reserve(static_cast<size_t>(graph.num_edges()));
  vals.reserve(static_cast<size_t>(graph.num_edges()));
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    rows.push_back(graph.edge_user(e));
    cols.push_back(graph.edge_merchant(e));
    vals.push_back(graph.edge_weight(e));
  }
  return CsrMatrix(graph.num_users(), graph.num_merchants(), rows, cols,
                   vals);
}

}  // namespace ensemfdet
