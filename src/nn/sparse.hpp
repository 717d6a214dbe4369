// Compressed-sparse-row kernels for the GCN hot path.
//
// CFG adjacencies are >95% zeros (a basic block has at most a handful of
// successors), so the normalized propagation matrix A_hat multiplied in
// every GCN forward/backward and every explainer iteration is extremely
// sparse. CsrMatrix stores only the structural non-zeros; spmm /
// spmm_transpose_a are the sparse counterparts of matmul /
// matmul_transpose_a and are bit-identical to the dense reference on
// matching inputs (same per-row accumulation order).
//
// Sparsity semantics: a *structural* zero (an entry CSR never stored) is
// treated as absent — it contributes nothing even against NaN/Inf in the
// dense operand. The dense kernels in matrix.cpp are the IEEE-faithful
// reference (0 * NaN = NaN); the sparse fast path makes the skip explicit
// in the representation instead of hiding it in a value test.
//
// Parallelism: every kernel takes an optional ThreadPool. Work is
// partitioned over disjoint output regions (rows for spmm and sddmm, column
// slices for spmm_transpose_a), so the parallel result is deterministic
// and identical to the serial one — each output element is accumulated by
// exactly one thread in the same order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/matrix.hpp"

namespace cfgx {

class ThreadPool;

class CsrMatrix {
 public:
  CsrMatrix() = default;

  // Captures every entry of `dense` with |value| > threshold (exact
  // non-zeros by default, so from_dense . to_dense is the identity).
  static CsrMatrix from_dense(const Matrix& dense, double threshold = 0.0);

  // From explicit triplet-style rows: row_ptr has rows+1 entries.
  CsrMatrix(std::size_t rows, std::size_t cols,
            std::vector<std::size_t> row_ptr, std::vector<std::uint32_t> col_idx,
            std::vector<double> values);

  Matrix to_dense() const;
  CsrMatrix transpose() const;

  // Mutable access to the stored values (structure stays fixed). The
  // incremental Algorithm-2 masking path rewrites the normalized values in
  // place each pruning iteration instead of rebuilding the CSR arrays.
  std::vector<double>& values_mut() noexcept { return values_; }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t nnz() const noexcept { return values_.size(); }
  bool empty() const noexcept { return rows_ == 0 && cols_ == 0; }

  // Fraction of stored entries, in [0, 1]; 0 for an empty matrix.
  double density() const noexcept;

  const std::vector<std::size_t>& row_ptr() const noexcept { return row_ptr_; }
  const std::vector<std::uint32_t>& col_idx() const noexcept { return col_idx_; }
  const std::vector<double>& values() const noexcept { return values_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;     // size rows_ + 1
  std::vector<std::uint32_t> col_idx_;   // size nnz
  std::vector<double> values_;           // size nnz
};

// Block-diagonal concatenation of CSR matrices with per-block row ranges:
// the batching primitive shared by the explanation-serving engine and
// (future) minibatched training. K graphs' normalized adjacencies become
// ONE CSR of shape (sum rows_k) x (sum cols_k); one spmm over it performs
// all K per-graph propagations at once, and it is BIT-identical to the K
// separate spmm calls: each batched row holds exactly its block's entries
// in the same order with the same values (column indices shift by the
// block offset, and the dense operand's rows shift by the same amount), so
// every per-row accumulation is the same sequence of IEEE additions.
//
// Row ranges let callers slice per-graph results back out of stacked
// outputs: rows [range(k).begin, range(k).end) of any row-aligned matrix
// (stacked features, embeddings) belong to block k.
class BatchedCsr {
 public:
  struct Range {
    std::size_t begin = 0;  // first row of this block
    std::size_t end = 0;    // one past the last row
    std::size_t size() const noexcept { return end - begin; }
  };

  BatchedCsr() = default;

  // Block-diagonal concat; blocks may be ragged (any shapes, including
  // empty). Throws std::invalid_argument on a null pointer or when the
  // total column count overflows the 32-bit CSR column index.
  static BatchedCsr concat(const std::vector<const CsrMatrix*>& blocks);

  const CsrMatrix& matrix() const noexcept { return matrix_; }
  std::size_t num_blocks() const noexcept { return ranges_.size(); }
  const Range& range(std::size_t block) const { return ranges_.at(block); }
  const std::vector<Range>& ranges() const noexcept { return ranges_; }

 private:
  CsrMatrix matrix_;
  std::vector<Range> ranges_;
};

// C = A * B with A in CSR form. Throws std::invalid_argument on
// inner-dimension mismatch. With a pool, rows of C are computed in
// worker_count chunks (deterministic; see header comment).
//
// The `_into` variants reshape `out` (zero-filling, capacity-reusing) and
// overwrite it; `out` must not alias `b`. The value-returning functions
// are thin wrappers, so both paths are bit-identical.
void spmm_into(const CsrMatrix& a, const Matrix& b, Matrix& out,
               ThreadPool* pool = nullptr);
Matrix spmm(const CsrMatrix& a, const Matrix& b, ThreadPool* pool = nullptr);

// C = A^T * B without materializing A^T. With a pool, each worker owns a
// disjoint slice of B's columns (scatter over output rows is race-free
// because writes within a slice never overlap across workers).
void spmm_transpose_a_into(const CsrMatrix& a, const Matrix& b, Matrix& out,
                           ThreadPool* pool = nullptr);
Matrix spmm_transpose_a(const CsrMatrix& a, const Matrix& b,
                        ThreadPool* pool = nullptr);

// Sampled dense-dense product (SDDMM): for every stored entry p = (i, j)
// of `pattern`, out[p] += sum_k a(i, k) * b(j, k) — A * B^T read only at
// the structure. Each sum starts from +0.0 in one scalar accumulator over
// ascending k, the order of matmul_transpose_b_into, so out[p] gains the
// very bits the dense product holds at (i, j). `out` must have nnz()
// entries; throws std::invalid_argument on a shape mismatch. With a pool,
// rows of `pattern` are split across workers (each slot has one writer).
void sddmm_accumulate(const CsrMatrix& pattern, const Matrix& a,
                      const Matrix& b, std::vector<double>& out,
                      ThreadPool* pool = nullptr);

// For every stored entry p = (i, j) of a structurally symmetric square
// matrix, the index of its transposed entry (j, i). O(nnz). Throws
// std::invalid_argument when some (i, j) has no stored (j, i).
std::vector<std::size_t> transpose_slots(const CsrMatrix& a);

namespace detail {

// One row of spmm into an arbitrary destination row: out_row[0, n) +=
// sum_p A[row, p] * B[col_p, 0..n) over the row's nonzeros in ascending p,
// on the ISA-dispatched row kernel spmm_into runs. `out_row` holds the
// accumulation seed (zero for a fresh row). The fused GCN pass aggregates
// gathered live rows into a tile with it.
void spmm_row_dispatch(const CsrMatrix& a, std::size_t row, const Matrix& b,
                       double* out_row);

}  // namespace detail

}  // namespace cfgx
