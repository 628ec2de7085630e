// Sparse CSR matrix over doubles, specialized for bipartite adjacency
// matrices W ∈ R^{|U|×|V|} (users as rows, merchants as columns). This is
// the substrate SPOKEN and FBOX run their SVD on.
#ifndef ENSEMFDET_LINALG_SPARSE_MATRIX_H_
#define ENSEMFDET_LINALG_SPARSE_MATRIX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.h"
#include "linalg/dense.h"

namespace ensemfdet {

/// Immutable CSR sparse matrix.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from COO triplets (duplicates summed).
  CsrMatrix(int64_t rows, int64_t cols,
            std::span<const int64_t> coo_rows,
            std::span<const int64_t> coo_cols,
            std::span<const double> coo_vals);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(vals_.size()); }

  /// y = A·x  (x has cols() entries, y gets rows()).
  void Multiply(std::span<const double> x, std::span<double> y) const;

  /// y = Aᵀ·x  (x has rows() entries, y gets cols()).
  void MultiplyTranspose(std::span<const double> x, std::span<double> y) const;

  /// B = A·X for dense X (cols() × k) → (rows() × k).
  DenseMatrix MultiplyDense(const DenseMatrix& x) const;

  /// B = Aᵀ·X for dense X (rows() × k) → (cols() × k).
  DenseMatrix MultiplyTransposeDense(const DenseMatrix& x) const;

  /// ‖row i‖₂ for every row (used by FBOX to normalize reconstruction).
  std::vector<double> RowNorms() const;

  /// Squared Frobenius norm Σ a_ij².
  double FrobeniusNormSquared() const;

  std::span<const int64_t> row_offsets() const { return row_offsets_; }
  std::span<const int64_t> col_indices() const { return col_indices_; }
  std::span<const double> values() const { return vals_; }

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<int64_t> row_offsets_;  // rows_+1 entries
  std::vector<int64_t> col_indices_;  // nnz entries, sorted within a row
  std::vector<double> vals_;
};

/// Adjacency matrix of `graph` with users as rows: W[u][v] = edge weight
/// (1.0 for unweighted graphs).
CsrMatrix AdjacencyMatrix(const CsrGraph& graph);

}  // namespace ensemfdet

#endif  // ENSEMFDET_LINALG_SPARSE_MATRIX_H_
