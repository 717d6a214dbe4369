// Dense row-major matrix of doubles: the numeric workhorse for every model
// in this repository (GCN layers, MLPs, explainer masks).
//
// The type is a regular value type (copyable, movable, equality-comparable)
// with bounds-checked element access in debug builds via at().
#pragma once

#include <cstddef>
#include <initializer_list>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace cfgx {

// Matrix heap blocks are 32-byte aligned (one AVX2 vector): the SIMD
// kernels use unaligned loads and stay correct either way, but an aligned
// base keeps vector loads from straddling cache lines on the common
// power-of-two column counts. Note the guarantee covers data() only — row
// starts are unaligned whenever cols % 4 != 0.
inline constexpr std::size_t kMatrixAlignment = 32;

// Minimal C++17 allocator carrying the over-aligned new/delete forms.
template <typename T, std::size_t Alignment = kMatrixAlignment>
struct AlignedAllocator {
  static_assert((Alignment & (Alignment - 1)) == 0, "alignment must be 2^n");
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t(Alignment));
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

class Matrix {
 public:
  Matrix() = default;

  // rows x cols, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  Matrix(std::size_t rows, std::size_t cols, double fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  // Construct from nested initializer list: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix zeros(std::size_t rows, std::size_t cols) { return {rows, cols}; }
  static Matrix identity(std::size_t n);
  static Matrix row_vector(std::span<const double> values);
  static Matrix column_vector(std::span<const double> values);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }
  // Heap capacity in doubles; reshape() within it never reallocates.
  std::size_t capacity() const noexcept { return data_.capacity(); }

  // Resizes to rows x cols and zero-fills. Reuses the existing heap block
  // whenever its capacity suffices — the Workspace recycling contract and
  // the reason the `_into` kernels are allocation-free in steady state.
  void reshape(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
  }

  double* data() noexcept { return data_.data(); }
  const double* data() const noexcept { return data_.data(); }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  // Bounds-checked access.
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  std::span<double> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  bool same_shape(const Matrix& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  void fill(double value) { data_.assign(data_.size(), value); }
  void set_zero() { fill(0.0); }

  // --- elementwise (in place); throw on shape mismatch ---
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar) noexcept;
  Matrix& hadamard_inplace(const Matrix& other);

  // Applies fn to every element (ReLU/Sigmoid/mask application).
  template <typename Fn>
    requires std::is_invocable_r_v<double, Fn, double>
  Matrix& apply(Fn&& fn) {
    for (double& v : data_) v = fn(v);
    return *this;
  }

  // --- elementwise (value-returning) ---
  friend Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
  friend Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
  friend Matrix operator*(Matrix lhs, double scalar) noexcept { return lhs *= scalar; }
  friend Matrix operator*(double scalar, Matrix rhs) noexcept { return rhs *= scalar; }
  Matrix hadamard(const Matrix& other) const {
    Matrix out = *this;
    return out.hadamard_inplace(other);
  }

  bool operator==(const Matrix& other) const = default;

  // --- reductions ---
  double sum() const noexcept;
  double max_abs() const noexcept;
  double frobenius_norm() const noexcept;
  Matrix row_sums() const;   // [rows, 1]
  Matrix col_sums() const;   // [1, cols]

  Matrix transpose() const;

  // Human-readable rendering (tests, debugging).
  std::string to_string(int decimals = 4) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double, AlignedAllocator<double>> data_;
};

// --- destination-passing kernels (the allocation-free hot path) ---
//
// Each `_into` variant reshapes `out` to the result shape (zero-filling,
// capacity-reusing — see Matrix::reshape) and overwrites it. `out` must not
// alias `a` or `b`. The value-returning functions below are thin wrappers
// and therefore bit-identical; both run the ISA-dispatched microkernel
// (simd.hpp), whose per-element accumulation order over k is the same
// strictly increasing order as the naive i-k-j reference. Under the scalar
// ISA results match the reference to the last bit (verified by the `prop`
// differential suites); under AVX2 each step is FMA-contracted, with the
// per-element difference bounded as documented in simd.hpp and pinned by
// the `simd` differential suite.

// C = A * B. Throws std::invalid_argument on inner-dimension mismatch.
void matmul_into(const Matrix& a, const Matrix& b, Matrix& out);
Matrix matmul(const Matrix& a, const Matrix& b);
// C = A^T * B without materializing A^T.
void matmul_transpose_a_into(const Matrix& a, const Matrix& b, Matrix& out);
Matrix matmul_transpose_a(const Matrix& a, const Matrix& b);
// C = A * B^T without materializing B^T.
void matmul_transpose_b_into(const Matrix& a, const Matrix& b, Matrix& out);
Matrix matmul_transpose_b(const Matrix& a, const Matrix& b);

namespace detail {

// The naive i-k-j reference loop (the pre-blocking kernel), kept as the
// IEEE-faithful oracle for the differential tests and the blocked-vs-naive
// micro benches. Bit-identical to the scalar blocked kernel by construction.
void matmul_reference_rows(const Matrix& a, const Matrix& b, Matrix& out,
                           std::size_t row_begin, std::size_t row_end);

// ISA-dispatched row kernel computing rows [row_begin, row_end) of
// out += A * B (`out` rows zeroed on entry): the AVX2+FMA kernel when
// simd::dispatch() selects it, else the cache-blocked scalar kernel. Under AVX2 each element differs from
// the scalar result only by FMA contraction (bound documented in
// simd.hpp); within one ISA it is deterministic and shared by matmul_into
// and the fused inference tiles (nn/tiles.hpp). Every
// element of a row depends only on that row of A, so any split of a row
// range gives the same bits.
void matmul_rows_dispatch(const Matrix& a, const Matrix& b, Matrix& out,
                          std::size_t row_begin, std::size_t row_end);

}  // namespace detail

// True when both shapes match and all |a-b| <= tol.
bool approx_equal(const Matrix& a, const Matrix& b, double tol = 1e-9);

}  // namespace cfgx
