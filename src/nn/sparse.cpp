#include "nn/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "nn/simd.hpp"
#include "nn/tiles.hpp"
#include "obs/metrics.hpp"

namespace cfgx {
namespace {

[[noreturn]] void throw_spmm_shape(const char* op, std::size_t a_rows,
                                   std::size_t a_cols, const Matrix& b) {
  throw std::invalid_argument(std::string(op) + ": shape mismatch [" +
                              std::to_string(a_rows) + "x" +
                              std::to_string(a_cols) + "] vs [" +
                              std::to_string(b.rows()) + "x" +
                              std::to_string(b.cols()) + "]");
}

// A^T * B restricted to B's column slice [col_begin, col_end): every nnz
// (k -> i, v) scatters v * B[k, j] into out[i, j] for j in the slice only.
void spmm_transpose_cols(const CsrMatrix& a, const Matrix& b, Matrix& out,
                         std::size_t col_begin, std::size_t col_end) {
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  const auto& values = a.values();
  const std::size_t n_cols = b.cols();
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const double* b_row = b.data() + k * n_cols;
    for (std::size_t p = row_ptr[k]; p < row_ptr[k + 1]; ++p) {
      const double v = values[p];
      double* out_row = out.data() + col_idx[p] * n_cols;
      for (std::size_t j = col_begin; j < col_end; ++j) {
        out_row[j] += v * b_row[j];
      }
    }
  }
}

}  // namespace

namespace detail {

// Per output element both implementations accumulate the row's nonzeros
// in ascending-p order (the scalar loop is p-outer / j-inner, the AVX2 one
// j-outer / p-inner — same per-element sequence), so they differ only by
// FMA contraction (bound in simd.hpp).
void spmm_row_dispatch(const CsrMatrix& a, std::size_t row, const Matrix& b,
                       double* out_row) {
  const std::size_t* row_ptr = a.row_ptr().data() + row;
  if (simd::dispatch() == simd::Isa::Avx2) {
    spmm_row_avx2(row_ptr, a.col_idx().data(), a.values().data(), b.data(),
                  b.cols(), out_row);
    return;
  }
  const std::size_t n_cols = b.cols();
  for (std::size_t p = row_ptr[0]; p < row_ptr[1]; ++p) {
    const double v = a.values()[p];
    const double* b_row = b.data() + a.col_idx()[p] * n_cols;
    for (std::size_t j = 0; j < n_cols; ++j) out_row[j] += v * b_row[j];
  }
}

}  // namespace detail

CsrMatrix CsrMatrix::from_dense(const Matrix& dense, double threshold) {
  CsrMatrix out;
  out.rows_ = dense.rows();
  out.cols_ = dense.cols();
  out.row_ptr_.assign(out.rows_ + 1, 0);
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    for (std::size_t j = 0; j < dense.cols(); ++j) {
      const double v = dense(i, j);
      if (std::abs(v) > threshold) {
        out.col_idx_.push_back(static_cast<std::uint32_t>(j));
        out.values_.push_back(v);
      }
    }
    out.row_ptr_[i + 1] = out.values_.size();
  }
  return out;
}

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<std::size_t> row_ptr,
                     std::vector<std::uint32_t> col_idx,
                     std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  if (row_ptr_.size() != rows_ + 1 || row_ptr_.front() != 0 ||
      row_ptr_.back() != values_.size() || col_idx_.size() != values_.size()) {
    throw std::invalid_argument("CsrMatrix: inconsistent CSR arrays");
  }
  for (std::size_t i = 0; i < rows_; ++i) {
    if (row_ptr_[i] > row_ptr_[i + 1]) {
      throw std::invalid_argument("CsrMatrix: row_ptr must be non-decreasing");
    }
  }
  for (std::uint32_t c : col_idx_) {
    if (c >= cols_) throw std::invalid_argument("CsrMatrix: column out of range");
  }
}

Matrix CsrMatrix::to_dense() const {
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      out(i, col_idx_[p]) = values_[p];
    }
  }
  return out;
}

CsrMatrix CsrMatrix::transpose() const {
  CsrMatrix out;
  out.rows_ = cols_;
  out.cols_ = rows_;
  out.row_ptr_.assign(cols_ + 1, 0);
  out.col_idx_.resize(nnz());
  out.values_.resize(nnz());
  // Counting sort by source column: count, prefix-sum, scatter.
  for (std::uint32_t c : col_idx_) ++out.row_ptr_[c + 1];
  for (std::size_t i = 0; i < cols_; ++i) out.row_ptr_[i + 1] += out.row_ptr_[i];
  std::vector<std::size_t> cursor(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      const std::size_t slot = cursor[col_idx_[p]]++;
      out.col_idx_[slot] = static_cast<std::uint32_t>(i);
      out.values_[slot] = values_[p];
    }
  }
  return out;
}

double CsrMatrix::density() const noexcept {
  const std::size_t total = rows_ * cols_;
  return total == 0 ? 0.0
                    : static_cast<double>(nnz()) / static_cast<double>(total);
}

BatchedCsr BatchedCsr::concat(const std::vector<const CsrMatrix*>& blocks) {
  std::size_t total_rows = 0;
  std::size_t total_cols = 0;
  std::size_t total_nnz = 0;
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    if (blocks[k] == nullptr) {
      throw std::invalid_argument("BatchedCsr::concat: null block at index " +
                                  std::to_string(k));
    }
    total_rows += blocks[k]->rows();
    total_cols += blocks[k]->cols();
    total_nnz += blocks[k]->nnz();
  }
  if (total_cols > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "BatchedCsr::concat: total column count " + std::to_string(total_cols) +
        " overflows the 32-bit CSR column index");
  }

  std::vector<std::size_t> row_ptr;
  std::vector<std::uint32_t> col_idx;
  std::vector<double> values;
  row_ptr.reserve(total_rows + 1);
  col_idx.reserve(total_nnz);
  values.reserve(total_nnz);
  row_ptr.push_back(0);

  BatchedCsr batched;
  batched.ranges_.reserve(blocks.size());
  std::size_t row_base = 0;
  std::size_t col_base = 0;
  std::size_t nnz_base = 0;
  for (const CsrMatrix* block : blocks) {
    // Rows keep their block's entries verbatim: same order, same values.
    // Only the column indices shift, by the running column offset.
    for (std::size_t r = 0; r < block->rows(); ++r) {
      row_ptr.push_back(nnz_base + block->row_ptr()[r + 1]);
    }
    for (std::uint32_t c : block->col_idx()) {
      col_idx.push_back(static_cast<std::uint32_t>(col_base + c));
    }
    values.insert(values.end(), block->values().begin(),
                  block->values().end());
    batched.ranges_.push_back(Range{row_base, row_base + block->rows()});
    row_base += block->rows();
    col_base += block->cols();
    nnz_base += block->nnz();
  }

  batched.matrix_ = CsrMatrix(total_rows, total_cols, std::move(row_ptr),
                              std::move(col_idx), std::move(values));
  return batched;
}

void spmm_into(const CsrMatrix& a, const Matrix& b, Matrix& out,
               ThreadPool* pool) {
  if (a.cols() != b.rows()) throw_spmm_shape("spmm", a.rows(), a.cols(), b);
  const KernelCall call(Kernel::Spmm);
  out.reshape(a.rows(), b.cols());
  parallel_ranges(pool, a.rows(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      detail::spmm_row_dispatch(a, i, b, out.data() + i * b.cols());
    }
  });
}

Matrix spmm(const CsrMatrix& a, const Matrix& b, ThreadPool* pool) {
  Matrix out;
  spmm_into(a, b, out, pool);
  return out;
}

void spmm_transpose_a_into(const CsrMatrix& a, const Matrix& b, Matrix& out,
                           ThreadPool* pool) {
  if (a.rows() != b.rows()) {
    throw_spmm_shape("spmm_transpose_a", a.rows(), a.cols(), b);
  }
  static obs::Counter& calls =
      obs::MetricsRegistry::global().counter("kernel.spmm_transpose.calls");
  static obs::Histogram& seconds =
      obs::MetricsRegistry::global().histogram("kernel.spmm_transpose.seconds");
  calls.add();
  obs::ScopedDurationTimer timer(seconds);
  out.reshape(a.cols(), b.cols());
  parallel_ranges(pool, b.cols(), [&](std::size_t begin, std::size_t end) {
    spmm_transpose_cols(a, b, out, begin, end);
  });
}

Matrix spmm_transpose_a(const CsrMatrix& a, const Matrix& b, ThreadPool* pool) {
  Matrix out;
  spmm_transpose_a_into(a, b, out, pool);
  return out;
}

void sddmm_accumulate(const CsrMatrix& pattern, const Matrix& a,
                      const Matrix& b, std::vector<double>& out,
                      ThreadPool* pool) {
  if (a.rows() != pattern.rows() || b.rows() != pattern.cols() ||
      a.cols() != b.cols() || out.size() != pattern.nnz()) {
    throw_spmm_shape("sddmm_accumulate", pattern.rows(), pattern.cols(), b);
  }
  const auto& row_ptr = pattern.row_ptr();
  const auto& col_idx = pattern.col_idx();
  const std::size_t k_dim = a.cols();
  parallel_ranges(pool, pattern.rows(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const double* a_row = a.data() + i * k_dim;
      for (std::size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
        const double* b_row = b.data() + col_idx[p] * k_dim;
        double acc = 0.0;
        for (std::size_t k = 0; k < k_dim; ++k) acc += a_row[k] * b_row[k];
        out[p] += acc;
      }
    }
  });
}

std::vector<std::size_t> transpose_slots(const CsrMatrix& a) {
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("transpose_slots: matrix must be square");
  }
  // Row i's entries in ascending column order are the column-i entries of
  // the transpose in ascending row order, so one cursor per row suffices.
  std::vector<std::size_t> mirror(col_idx.size(), 0);
  std::vector<std::size_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const std::size_t j = col_idx[p];
      const std::size_t q = cursor[j]++;
      if (q >= row_ptr[j + 1] || col_idx[q] != i) {
        throw std::invalid_argument(
            "transpose_slots: structure is not symmetric");
      }
      mirror[q] = p;
    }
  }
  for (std::size_t j = 0; j < a.rows(); ++j) {
    if (cursor[j] != row_ptr[j + 1]) {
      throw std::invalid_argument(
          "transpose_slots: structure is not symmetric");
    }
  }
  return mirror;
}

}  // namespace cfgx
