// AVX2+FMA microkernels. This translation unit is the ONLY one compiled
// with -mavx2 -mfma; every entry point is reached strictly through the
// runtime dispatch in simd.cpp, so no AVX2 instruction executes on a host
// whose CPUID probe failed. Signatures are raw pointers on purpose: the TU
// must not instantiate inline code shared with baseline-ISA TUs (the
// linker could pick the AVX2-compiled copy and crash a non-AVX2 host).
//
// Numerical contract (DESIGN.md decision 14): every kernel accumulates
// each output element over k in the SAME strictly ascending order as its
// scalar counterpart. The only difference is FMA contraction — each
// `acc += a * b` becomes one correctly rounded fused step instead of two
// roundings — so |avx2 - scalar| is bounded by 2*k*u*sum|a*b| per element
// with no reassociation term, and results are identical across repeated
// runs and across the `_into` / fused-tile / parallel / batched variants
// (they all funnel into these row kernels).
//
// Remainder columns (n % 4) use std::fma so the contracted rounding
// matches the vector lanes exactly; the dense kernel runs 4-row tiles and
// finishes remainder rows with the 2-row and 1-row tiles.
#include "nn/simd.hpp"

#if defined(CFGX_HAVE_AVX2_BUILD) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <cmath>

namespace cfgx::detail {
namespace {

// R output rows (R = 1, 2 or 4) share every B load: per 8-column block the
// tile keeps 2R independent FMA chains in flight (8 at R = 4). The
// per-element accumulation order is unchanged — each output element is
// still one fma chain over ascending k seeded from its `out` value — so
// any split of a row range into tiles gives the same bits. The r loops are
// fully unrolled so the accumulators stay in registers.
template <std::size_t R>
inline void matmul_row_tile(const double* a, std::size_t a_cols,
                            const double* b, std::size_t n_cols, double* out) {
  std::size_t j = 0;
  for (; j + 8 <= n_cols; j += 8) {
    __m256d acc[R][2];
    #pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      acc[r][0] = _mm256_loadu_pd(out + r * n_cols + j);
      acc[r][1] = _mm256_loadu_pd(out + r * n_cols + j + 4);
    }
    const double* b_col = b + j;
    for (std::size_t k = 0; k < a_cols; ++k, b_col += n_cols) {
      const __m256d b0 = _mm256_loadu_pd(b_col);
      const __m256d b1 = _mm256_loadu_pd(b_col + 4);
      #pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        const __m256d ark = _mm256_set1_pd(a[r * a_cols + k]);
        acc[r][0] = _mm256_fmadd_pd(ark, b0, acc[r][0]);
        acc[r][1] = _mm256_fmadd_pd(ark, b1, acc[r][1]);
      }
    }
    #pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      _mm256_storeu_pd(out + r * n_cols + j, acc[r][0]);
      _mm256_storeu_pd(out + r * n_cols + j + 4, acc[r][1]);
    }
  }
  for (; j + 4 <= n_cols; j += 4) {
    __m256d acc[R];
    #pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      acc[r] = _mm256_loadu_pd(out + r * n_cols + j);
    }
    const double* b_col = b + j;
    for (std::size_t k = 0; k < a_cols; ++k, b_col += n_cols) {
      const __m256d bv = _mm256_loadu_pd(b_col);
      #pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        acc[r] = _mm256_fmadd_pd(_mm256_set1_pd(a[r * a_cols + k]), bv, acc[r]);
      }
    }
    #pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      _mm256_storeu_pd(out + r * n_cols + j, acc[r]);
    }
  }
  for (; j < n_cols; ++j) {
    double acc[R];
    #pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) acc[r] = out[r * n_cols + j];
    const double* b_col = b + j;
    for (std::size_t k = 0; k < a_cols; ++k, b_col += n_cols) {
      #pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        acc[r] = std::fma(a[r * a_cols + k], *b_col, acc[r]);
      }
    }
    #pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) out[r * n_cols + j] = acc[r];
  }
}

}  // namespace

void matmul_rows_avx2(const double* a, std::size_t a_cols, const double* b,
                      std::size_t n_cols, double* out, std::size_t row_begin,
                      std::size_t row_end) {
  std::size_t i = row_begin;
  for (; i + 4 <= row_end; i += 4) {
    matmul_row_tile<4>(a + i * a_cols, a_cols, b, n_cols, out + i * n_cols);
  }
  if (i + 2 <= row_end) {
    matmul_row_tile<2>(a + i * a_cols, a_cols, b, n_cols, out + i * n_cols);
    i += 2;
  }
  if (i < row_end) {
    matmul_row_tile<1>(a + i * a_cols, a_cols, b, n_cols, out + i * n_cols);
  }
}

void spmm_row_avx2(const std::size_t* row_ptr, const std::uint32_t* col_idx,
                   const double* values, const double* b, std::size_t n_cols,
                   double* out_row) {
  const std::size_t p_begin = row_ptr[0];
  const std::size_t p_end = row_ptr[1];
  // A zero-nnz row contributes nothing: out already holds its seed.
  if (p_begin == p_end) return;
  std::size_t j = 0;
  // 16-wide blocks (4 accumulators): one broadcast feeds 4 fmas per
  // nonzero, and the block loop runs n/16 times — at CFG density (~2
  // nnz/row) the loop + broadcast overhead, not the fmas, is the cost.
  for (; j + 16 <= n_cols; j += 16) {
    __m256d acc0 = _mm256_loadu_pd(out_row + j);
    __m256d acc1 = _mm256_loadu_pd(out_row + j + 4);
    __m256d acc2 = _mm256_loadu_pd(out_row + j + 8);
    __m256d acc3 = _mm256_loadu_pd(out_row + j + 12);
    for (std::size_t p = p_begin; p < p_end; ++p) {
      const double* b_row = b + col_idx[p] * n_cols + j;
      const __m256d v = _mm256_set1_pd(values[p]);
      acc0 = _mm256_fmadd_pd(v, _mm256_loadu_pd(b_row), acc0);
      acc1 = _mm256_fmadd_pd(v, _mm256_loadu_pd(b_row + 4), acc1);
      acc2 = _mm256_fmadd_pd(v, _mm256_loadu_pd(b_row + 8), acc2);
      acc3 = _mm256_fmadd_pd(v, _mm256_loadu_pd(b_row + 12), acc3);
    }
    _mm256_storeu_pd(out_row + j, acc0);
    _mm256_storeu_pd(out_row + j + 4, acc1);
    _mm256_storeu_pd(out_row + j + 8, acc2);
    _mm256_storeu_pd(out_row + j + 12, acc3);
  }
  for (; j + 8 <= n_cols; j += 8) {
    __m256d acc0 = _mm256_loadu_pd(out_row + j);
    __m256d acc1 = _mm256_loadu_pd(out_row + j + 4);
    for (std::size_t p = p_begin; p < p_end; ++p) {
      const double* b_row = b + col_idx[p] * n_cols + j;
      const __m256d v = _mm256_set1_pd(values[p]);
      acc0 = _mm256_fmadd_pd(v, _mm256_loadu_pd(b_row), acc0);
      acc1 = _mm256_fmadd_pd(v, _mm256_loadu_pd(b_row + 4), acc1);
    }
    _mm256_storeu_pd(out_row + j, acc0);
    _mm256_storeu_pd(out_row + j + 4, acc1);
  }
  for (; j + 4 <= n_cols; j += 4) {
    __m256d acc = _mm256_loadu_pd(out_row + j);
    for (std::size_t p = p_begin; p < p_end; ++p) {
      acc = _mm256_fmadd_pd(_mm256_set1_pd(values[p]),
                            _mm256_loadu_pd(b + col_idx[p] * n_cols + j),
                            acc);
    }
    _mm256_storeu_pd(out_row + j, acc);
  }
  for (; j < n_cols; ++j) {
    double acc = out_row[j];
    for (std::size_t p = p_begin; p < p_end; ++p) {
      acc = std::fma(values[p], b[col_idx[p] * n_cols + j], acc);
    }
    out_row[j] = acc;
  }
}

}  // namespace cfgx::detail

#else  // !CFGX_HAVE_AVX2_BUILD

// Stubs for builds without AVX2 support (non-x86 targets or a compiler
// lacking -mavx2 -mfma). simd::avx2_supported() is false in these builds,
// so dispatch can never reach them.
#include <cstdlib>

namespace cfgx::detail {

void matmul_rows_avx2(const double*, std::size_t, const double*, std::size_t,
                      double*, std::size_t, std::size_t) {
  std::abort();
}
void spmm_row_avx2(const std::size_t*, const std::uint32_t*, const double*,
                   const double*, std::size_t, double*) {
  std::abort();
}
}  // namespace cfgx::detail

#endif
