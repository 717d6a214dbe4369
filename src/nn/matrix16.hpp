// bf16 (bfloat16) weight storage for the reduced-precision inference path
// of Phi (DESIGN.md decision 14).
//
// bf16 is the top 16 bits of an IEEE binary32: same exponent range as
// fp32, 7 mantissa bits. Matrix16 stores a packed bf16 copy of a weight
// matrix (half the bytes of fp32, a quarter of the fp64 master weights);
// the matmul_bf16 kernels multiply fp64 activations against it with fp32
// ACCUMULATION — every product is fmaf((float)a_ik, widen(w_kj), acc) in
// ascending-k order, so the scalar and AVX2 implementations are
// bit-identical (both chain correctly rounded fp32 fmas in the same
// order; the widening back to the fp64 output is exact).
//
// Rounding: pack() narrows fp64 -> fp32 -> bf16, each step
// round-to-nearest-even; NaNs are quieted (never flushed to Inf), Inf and
// signed zeros are preserved. Representable values round-trip exactly and
// rounding is monotone — both properties pinned by the bf16 prop suite.
//
// The master weights stay fp64: bf16 is a derived, inference-only view
// (GnnClassifier::set_precision packs it; training and serialization
// always use the fp64 parameters, and set_precision must be re-applied
// after any weight update).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/matrix.hpp"

namespace cfgx {

// Inference precision for Phi. Fp64 is the reference path; Bf16 stores
// weights in bf16 and accumulates in fp32 (see above).
enum class Precision : std::uint8_t { Fp64 = 0, Bf16 = 1 };

const char* precision_name(Precision precision) noexcept;
// Parses "fp64" / "bf16"; throws std::invalid_argument on anything else.
Precision parse_precision(const std::string& value);

// Round-to-nearest-even fp32 -> bf16; NaN payloads are quieted so the
// result is still NaN after widening.
std::uint16_t float_to_bf16(float value) noexcept;
// Exact widening (bf16 is a prefix of the fp32 bit pattern).
float bf16_to_float(std::uint16_t bits) noexcept;

// Dense row-major bf16 matrix (packed weights).
class Matrix16 {
 public:
  Matrix16() = default;
  Matrix16(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0) {}

  // fp64 -> fp32 -> bf16, round-to-nearest-even at each narrowing.
  static Matrix16 pack(const Matrix& source);
  // Exact widening back to fp64 (for tests and diagnostics).
  Matrix unpack() const;

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  std::uint16_t* data() noexcept { return data_.data(); }
  const std::uint16_t* data() const noexcept { return data_.data(); }

  std::uint16_t& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  std::uint16_t operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  bool operator==(const Matrix16& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint16_t> data_;
};

// out = A * W with W in bf16 and fp32 accumulation; `out` is reshaped
// (capacity-reusing) and must not alias `a`. Throws std::invalid_argument
// on inner-dimension mismatch. Dispatched per ISA (scalar / AVX2) and
// bit-identical across ISAs.
void matmul_bf16_into(const Matrix& a, const Matrix16& w, Matrix& out);
Matrix matmul_bf16(const Matrix& a, const Matrix16& w);

namespace detail {

// ISA-dispatched bf16 row kernel: overwrites rows [row_begin, row_end) of
// `out` with A * W (fp32 accumulation). Shared by matmul_bf16_into and the
// fused GCN tiles; each row depends only on that row of A.
void matmul_bf16_rows_dispatch(const Matrix& a, const Matrix16& w, Matrix& out,
                               std::size_t row_begin, std::size_t row_end);

}  // namespace detail

}  // namespace cfgx
