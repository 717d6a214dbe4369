#include "nn/matrix16.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "nn/simd.hpp"
#include "nn/tiles.hpp"

namespace cfgx {
namespace {

// Scalar bf16 kernel: fp32 accumulation via correctly rounded std::fmaf in
// ascending-k order — the exact operation sequence the AVX2 kernel
// replays, so the two are bit-identical.
void matmul_bf16_rows_scalar(const double* a, std::size_t a_cols,
                             const std::uint16_t* w, std::size_t n_cols,
                             double* out, std::size_t row_begin,
                             std::size_t row_end) {
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const double* a_row = a + i * a_cols;
    double* out_row = out + i * n_cols;
    for (std::size_t j = 0; j < n_cols; ++j) {
      float acc = 0.0f;
      const std::uint16_t* w_col = w + j;
      for (std::size_t k = 0; k < a_cols; ++k, w_col += n_cols) {
        acc = std::fmaf(static_cast<float>(a_row[k]), bf16_to_float(*w_col),
                        acc);
      }
      out_row[j] = static_cast<double>(acc);
    }
  }
}

void check_bf16_shapes(const Matrix& a, const Matrix16& w) {
  if (a.cols() != w.rows()) {
    throw std::invalid_argument("matmul_bf16: inner dimensions do not match");
  }
}

}  // namespace

namespace detail {

void matmul_bf16_rows_dispatch(const Matrix& a, const Matrix16& w, Matrix& out,
                               std::size_t row_begin, std::size_t row_end) {
  if (simd::dispatch() == simd::Isa::Avx2) {
    matmul_bf16_rows_avx2(a.data(), a.cols(), w.data(), w.cols(), out.data(),
                          row_begin, row_end);
  } else {
    matmul_bf16_rows_scalar(a.data(), a.cols(), w.data(), w.cols(), out.data(),
                            row_begin, row_end);
  }
}

}  // namespace detail

const char* precision_name(Precision precision) noexcept {
  switch (precision) {
    case Precision::Bf16:
      return "bf16";
    case Precision::Fp64:
      break;
  }
  return "fp64";
}

Precision parse_precision(const std::string& value) {
  if (value == "fp64") return Precision::Fp64;
  if (value == "bf16") return Precision::Bf16;
  throw std::invalid_argument("unknown precision '" + value +
                              "' (expected 'fp64' or 'bf16')");
}

std::uint16_t float_to_bf16(float value) noexcept {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  if (std::isnan(value)) {
    // Truncate the payload but force a mantissa bit so the result stays a
    // (quiet) NaN instead of decaying to Inf.
    return static_cast<std::uint16_t>((bits >> 16) | 0x0040u);
  }
  // Round to nearest, ties to even, on the low 16 bits. Overflow carries
  // into the exponent and saturates finite values to Inf, which is the
  // correct RNE result for magnitudes above the largest bf16 finite.
  bits += 0x7FFFu + ((bits >> 16) & 1u);
  return static_cast<std::uint16_t>(bits >> 16);
}

float bf16_to_float(std::uint16_t bits) noexcept {
  const std::uint32_t wide = static_cast<std::uint32_t>(bits) << 16;
  float out;
  std::memcpy(&out, &wide, sizeof out);
  return out;
}

Matrix16 Matrix16::pack(const Matrix& source) {
  Matrix16 packed(source.rows(), source.cols());
  const double* src = source.data();
  std::uint16_t* dst = packed.data();
  for (std::size_t i = 0; i < source.size(); ++i) {
    dst[i] = float_to_bf16(static_cast<float>(src[i]));
  }
  return packed;
}

Matrix Matrix16::unpack() const {
  Matrix wide(rows_, cols_);
  double* dst = wide.data();
  for (std::size_t i = 0; i < data_.size(); ++i) {
    dst[i] = static_cast<double>(bf16_to_float(data_[i]));
  }
  return wide;
}

void matmul_bf16_into(const Matrix& a, const Matrix16& w, Matrix& out) {
  check_bf16_shapes(a, w);
  const KernelCall call(Kernel::MatmulBf16);
  out.reshape(a.rows(), w.cols());
  detail::matmul_bf16_rows_dispatch(a, w, out, 0, a.rows());
}

Matrix matmul_bf16(const Matrix& a, const Matrix16& w) {
  Matrix out;
  matmul_bf16_into(a, w, out);
  return out;
}

}  // namespace cfgx
