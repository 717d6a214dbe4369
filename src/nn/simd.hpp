// Runtime-dispatched SIMD microkernels (DESIGN.md decision 14).
//
// The dense blocked matmul and the CSR spmm row loop each exist in two
// implementations:
//
//   * scalar — the cache-blocked kernels of matrix.cpp / sparse.cpp,
//     compiled for the baseline ISA. These remain the oracles: the scalar
//     blocked matmul is bit-identical to detail::matmul_reference_rows (the
//     seed naive loop), and every scalar fast path is proven bit-identical
//     to the seed reference by the `prop` differential suites.
//   * avx2 — hand-written AVX2+FMA kernels (kernels_avx2.cpp, compiled with
//     -mavx2 -mfma and only ever called after a runtime CPUID check).
//
// Dispatch is decided ONCE per process (first dispatch() call): the CPUID
// probe selects the widest supported ISA, overridable by the CFGX_SIMD
// environment variable ("avx2" | "scalar"; anything else throws) and by
// set_isa() (the bench `--simd` flag and the differential tests). The
// selected ISA is exported as the `kernels.isa` gauge so run manifests
// attribute every measurement to the code path that produced it.
//
// Equivalence contract (what the simd prop suite pins):
//   * Within one ISA, every kernel variant (`_into`, fused tiles, parallel,
//     batched) is bit-identical to the others — same per-element IEEE
//     operation sequence, so determinism and all existing cross-variant
//     oracles hold unchanged under either ISA.
//   * Across ISAs, the AVX2 kernels preserve the scalar accumulation ORDER
//     (ascending k per output element) but contract each multiply-add into
//     one fused rounding. The difference is therefore bounded per element:
//     |avx2 - scalar| <= 2 * k * u * sum_k |a_ik * b_kj|, u = 2^-53
//     (each of the k steps replaces two roundings by one; no
//     reassociation). The simd_oracle suite checks this bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace cfgx {
namespace simd {

enum class Isa : std::uint8_t { Scalar = 0, Avx2 = 1 };

// Stable lowercase name ("scalar", "avx2") for manifests and metrics.
const char* isa_name(Isa isa) noexcept;

// Parses "scalar" / "avx2"; throws std::invalid_argument on anything else.
Isa parse_isa(const std::string& value);

// True when this build carries the AVX2 kernels AND the running CPU
// supports AVX2+FMA (one-time CPUID probe).
bool avx2_supported() noexcept;

// The active ISA. First call resolves it: CFGX_SIMD when set (unknown
// values throw std::runtime_error; "avx2" on an unsupported host throws
// too), otherwise the widest supported ISA. Subsequent calls are a relaxed
// atomic load.
Isa dispatch();

// Overrides the active ISA (bench --simd flag, differential tests). Throws
// std::runtime_error when the requested ISA is not supported on this host.
void set_isa(Isa isa);

// Updates the `kernels.isa` gauge to the active ISA's enum value. Called
// on dispatch resolution and by set_isa(); exposed for tests.
void record_isa_metric();

// RAII override: resolves the current ISA, forces `isa`, restores on
// destruction. For tests pinning one side of the differential contract and
// for bench baseline sweeps. Not thread-safe — the override is process-wide.
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa) : previous_(dispatch()) { set_isa(isa); }
  ~ScopedIsa() { set_isa(previous_); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  Isa previous_;
};

}  // namespace simd

namespace detail {

// AVX2+FMA kernels (kernels_avx2.cpp, raw-pointer signatures so the
// AVX2-compiled TU instantiates no shared inline code). Callable only when
// simd::avx2_supported(); the dispatch wrappers in matrix.cpp / sparse.cpp
// guarantee that. Contracts mirror the scalar kernels they replace:
// ascending-k accumulation per output element, `out` rows holding their
// accumulation seed (zero after reshape) on entry.
//
// out[i, 0..n) += A[i, 0..k) * B[0..k, 0..n) for i in [row_begin, row_end).
void matmul_rows_avx2(const double* a, std::size_t a_cols, const double* b,
                      std::size_t n_cols, double* out, std::size_t row_begin,
                      std::size_t row_end);
// One CSR row: out_row[j] += sum_p values[p] * B[col_idx[p], j] over
// p in [row_ptr[0], row_ptr[1]).
void spmm_row_avx2(const std::size_t* row_ptr, const std::uint32_t* col_idx,
                   const double* values, const double* b, std::size_t n_cols,
                   double* out_row);

}  // namespace detail
}  // namespace cfgx
