#include "nn/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "nn/simd.hpp"
#include "nn/tiles.hpp"
#include "obs/metrics.hpp"

namespace cfgx {
namespace {

[[noreturn]] void throw_shape(const char* op, const Matrix& a, const Matrix& b) {
  throw std::invalid_argument(std::string("Matrix ") + op + ": shape mismatch [" +
                              std::to_string(a.rows()) + "x" + std::to_string(a.cols()) +
                              "] vs [" + std::to_string(b.rows()) + "x" +
                              std::to_string(b.cols()) + "]");
}

}  // namespace

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    if (row.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix out(n, n);
  for (std::size_t i = 0; i < n; ++i) out(i, i) = 1.0;
  return out;
}

Matrix Matrix::row_vector(std::span<const double> values) {
  Matrix out(1, values.size());
  std::copy(values.begin(), values.end(), out.data());
  return out;
}

Matrix Matrix::column_vector(std::span<const double> values) {
  Matrix out(values.size(), 1);
  std::copy(values.begin(), values.end(), out.data());
  return out;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("Matrix::at(" + std::to_string(r) + "," +
                            std::to_string(c) + ") out of [" +
                            std::to_string(rows_) + "x" + std::to_string(cols_) + "]");
  }
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  return const_cast<Matrix*>(this)->at(r, c);
}

Matrix& Matrix::operator+=(const Matrix& other) {
  if (!same_shape(other)) throw_shape("+=", *this, other);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  if (!same_shape(other)) throw_shape("-=", *this, other);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) noexcept {
  for (double& v : data_) v *= scalar;
  return *this;
}

Matrix& Matrix::hadamard_inplace(const Matrix& other) {
  if (!same_shape(other)) throw_shape("hadamard", *this, other);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

double Matrix::sum() const noexcept {
  double acc = 0.0;
  for (double v : data_) acc += v;
  return acc;
}

double Matrix::max_abs() const noexcept {
  double best = 0.0;
  for (double v : data_) best = std::max(best, std::abs(v));
  return best;
}

double Matrix::frobenius_norm() const noexcept {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

Matrix Matrix::row_sums() const {
  Matrix out(rows_, 1);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += (*this)(r, c);
    out(r, 0) = acc;
  }
  return out;
}

Matrix Matrix::col_sums() const {
  Matrix out(1, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(0, c) += (*this)(r, c);
  }
  return out;
}

Matrix Matrix::transpose() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

std::string Matrix::to_string(int decimals) const {
  std::ostringstream out;
  char buf[64];
  for (std::size_t r = 0; r < rows_; ++r) {
    out << (r == 0 ? "[" : " ");
    for (std::size_t c = 0; c < cols_; ++c) {
      std::snprintf(buf, sizeof buf, "% .*f", decimals, (*this)(r, c));
      out << buf << (c + 1 == cols_ ? "" : " ");
    }
    out << (r + 1 == rows_ ? "]" : "\n");
  }
  return out.str();
}

namespace detail {

void matmul_reference_rows(const Matrix& a, const Matrix& b, Matrix& out,
                           std::size_t row_begin, std::size_t row_end) {
  // i-k-j loop order for cache-friendly access of row-major operands.
  for (std::size_t i = row_begin; i < row_end; ++i) {
    double* out_row = out.data() + i * out.cols();
    for (std::size_t k = 0; k < a.cols(); ++k) {
      // No zero-skip here: the dense kernel is the IEEE-faithful reference
      // (0 * NaN must poison the output). Sparsity lives in CsrMatrix.
      const double aik = a(i, k);
      const double* b_row = b.data() + k * b.cols();
      for (std::size_t j = 0; j < b.cols(); ++j) out_row[j] += aik * b_row[j];
    }
  }
}

namespace {

// Panel sizes tuned for doubles: a KC x NC panel of B (128 KiB at the
// maxima) stays L2-resident while every row pair of A streams against it.
constexpr std::size_t kBlockK = 64;
constexpr std::size_t kBlockN = 256;

// One (i-pair, k-panel, j-panel) tile: two output rows accumulate against
// the same B rows, halving B traffic; the innermost loop is unrolled 4
// wide. Each out[i][j] still accumulates over k in strictly increasing
// order, so the result is bit-identical to matmul_reference_rows.
inline void tile_two_rows(const double* a_row0, const double* a_row1,
                          const double* b_data, double* out_row0,
                          double* out_row1, std::size_t n_cols,
                          std::size_t k_begin, std::size_t k_end,
                          std::size_t j_begin, std::size_t j_end) {
  for (std::size_t k = k_begin; k < k_end; ++k) {
    const double a0k = a_row0[k];
    const double a1k = a_row1[k];
    const double* b_row = b_data + k * n_cols;
    std::size_t j = j_begin;
    for (; j + 4 <= j_end; j += 4) {
      out_row0[j] += a0k * b_row[j];
      out_row0[j + 1] += a0k * b_row[j + 1];
      out_row0[j + 2] += a0k * b_row[j + 2];
      out_row0[j + 3] += a0k * b_row[j + 3];
      out_row1[j] += a1k * b_row[j];
      out_row1[j + 1] += a1k * b_row[j + 1];
      out_row1[j + 2] += a1k * b_row[j + 2];
      out_row1[j + 3] += a1k * b_row[j + 3];
    }
    for (; j < j_end; ++j) {
      out_row0[j] += a0k * b_row[j];
      out_row1[j] += a1k * b_row[j];
    }
  }
}

inline void tile_one_row(const double* a_row, const double* b_data,
                         double* out_row, std::size_t n_cols,
                         std::size_t k_begin, std::size_t k_end,
                         std::size_t j_begin, std::size_t j_end) {
  for (std::size_t k = k_begin; k < k_end; ++k) {
    const double aik = a_row[k];
    const double* b_row = b_data + k * n_cols;
    std::size_t j = j_begin;
    for (; j + 4 <= j_end; j += 4) {
      out_row[j] += aik * b_row[j];
      out_row[j + 1] += aik * b_row[j + 1];
      out_row[j + 2] += aik * b_row[j + 2];
      out_row[j + 3] += aik * b_row[j + 3];
    }
    for (; j < j_end; ++j) out_row[j] += aik * b_row[j];
  }
}

// Rows [row_begin, row_end) of out += A * B with a 2-row register tile
// over KC x NC panels of B; the scalar side of matmul_rows_dispatch.
void matmul_block_rows(const Matrix& a, const Matrix& b, Matrix& out,
                       std::size_t row_begin, std::size_t row_end) {
  const std::size_t n_cols = b.cols();
  const std::size_t k_total = a.cols();
  for (std::size_t jj = 0; jj < n_cols; jj += kBlockN) {
    const std::size_t j_end = std::min(n_cols, jj + kBlockN);
    for (std::size_t kk = 0; kk < k_total; kk += kBlockK) {
      const std::size_t k_end = std::min(k_total, kk + kBlockK);
      std::size_t i = row_begin;
      for (; i + 2 <= row_end; i += 2) {
        tile_two_rows(a.data() + i * k_total, a.data() + (i + 1) * k_total,
                      b.data(), out.data() + i * n_cols,
                      out.data() + (i + 1) * n_cols, n_cols, kk, k_end, jj,
                      j_end);
      }
      if (i < row_end) {
        tile_one_row(a.data() + i * k_total, b.data(),
                     out.data() + i * n_cols, n_cols, kk, k_end, jj, j_end);
      }
    }
  }
}

}  // namespace

void matmul_rows_dispatch(const Matrix& a, const Matrix& b, Matrix& out,
                          std::size_t row_begin, std::size_t row_end) {
  if (simd::dispatch() == simd::Isa::Avx2) {
    matmul_rows_avx2(a.data(), a.cols(), b.data(), b.cols(), out.data(),
                     row_begin, row_end);
  } else {
    matmul_block_rows(a, b, out, row_begin, row_end);
  }
}

}  // namespace detail

void matmul_into(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.cols() != b.rows()) throw_shape("matmul", a, b);
  const KernelCall call(Kernel::Matmul);
  out.reshape(a.rows(), b.cols());
  detail::matmul_rows_dispatch(a, b, out, 0, a.rows());
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix out;
  matmul_into(a, b, out);
  return out;
}

void matmul_transpose_a_into(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.rows() != b.rows()) throw_shape("matmul_transpose_a", a, b);
  static obs::Counter& calls =
      obs::MetricsRegistry::global().counter("kernel.matmul_transpose_a.calls");
  calls.add();
  out.reshape(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const double* a_row = a.data() + k * a.cols();
    const double* b_row = b.data() + k * b.cols();
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double aki = a_row[i];
      double* out_row = out.data() + i * out.cols();
      for (std::size_t j = 0; j < b.cols(); ++j) out_row[j] += aki * b_row[j];
    }
  }
}

Matrix matmul_transpose_a(const Matrix& a, const Matrix& b) {
  Matrix out;
  matmul_transpose_a_into(a, b, out);
  return out;
}

void matmul_transpose_b_into(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.cols() != b.cols()) throw_shape("matmul_transpose_b", a, b);
  static obs::Counter& calls =
      obs::MetricsRegistry::global().counter("kernel.matmul_transpose_b.calls");
  calls.add();
  out.reshape(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.data() + i * a.cols();
    double* out_row = out.data() + i * out.cols();
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const double* b_row = b.data() + j * b.cols();
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a_row[k] * b_row[k];
      out_row[j] = acc;
    }
  }
}

Matrix matmul_transpose_b(const Matrix& a, const Matrix& b) {
  Matrix out;
  matmul_transpose_b_into(a, b, out);
  return out;
}

bool approx_equal(const Matrix& a, const Matrix& b, double tol) {
  if (!a.same_shape(b)) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a.data()[i] - b.data()[i]) > tol) return false;
  }
  return true;
}

}  // namespace cfgx
