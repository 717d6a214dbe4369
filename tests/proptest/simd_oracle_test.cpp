// Differential battery for the runtime-dispatched SIMD kernels (DESIGN.md
// decision 14).
//
// Contract split (simd.hpp):
//   * WITHIN one ISA every kernel variant (`_into`, wrapper, row tiles,
//     parallel, batched) is bit-identical — checked by memcmp here under
//     the AVX2 ISA (the scalar side is pinned by the pre-existing suites).
//   * ACROSS ISAs the AVX2 kernels preserve the scalar accumulation order
//     but contract each multiply-add into one fused rounding, so per
//     element |avx2 - scalar| <= 2 * k * u * sum_k |a_ik * b_kj| with
//     u = 2^-53 and k the number of accumulated terms (nnz for spmm rows).
//     No reassociation term — the bound is linear in k, not in the tile
//     shape, and it is what this suite checks on hostile shapes: odd
//     column counts straddling the 8/4/scalar remainder splits, k smaller
//     than one vector, empty CSR rows, degenerate 1xN / Nx1 extremes.
//
// Every AVX2 case GTEST_SKIPs on hosts without AVX2+FMA; the scalar-forced
// CI leg (CFGX_SIMD=scalar) runs the same binary to prove the suite and
// the dispatch degrade cleanly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/matrix.hpp"
#include "nn/simd.hpp"
#include "nn/sparse.hpp"
#include "nn/workspace.hpp"
#include "proptest/generators.hpp"
#include "proptest/proptest.hpp"
#include "util/thread_pool.hpp"

namespace cfgx {
namespace {

using proptest::check_property;
using proptest::debug_string;
using proptest::Gen;

constexpr double kUnitRoundoff = 0x1p-53;

bool bit_identical(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Per-element forward-error budget separating the FMA-contracted AVX2
// accumulation from the two-rounding scalar one (see header comment).
Matrix contraction_bound(const Matrix& a, const Matrix& b) {
  Matrix bound(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double mag_a = std::abs(a(i, k));
      for (std::size_t j = 0; j < b.cols(); ++j) {
        bound(i, j) += mag_a * std::abs(b(k, j));
      }
    }
  }
  const double scale =
      2.0 * static_cast<double>(a.cols()) * kUnitRoundoff;
  for (std::size_t i = 0; i < bound.size(); ++i) bound.data()[i] *= scale;
  return bound;
}

bool within_bound(const Matrix& avx2, const Matrix& scalar,
                  const Matrix& bound) {
  if (!avx2.same_shape(scalar)) return false;
  for (std::size_t i = 0; i < avx2.size(); ++i) {
    if (!(std::abs(avx2.data()[i] - scalar.data()[i]) <= bound.data()[i])) {
      return false;
    }
  }
  return true;
}

struct MatmulCase {
  Matrix a;
  Matrix b;
};

std::string debug_string(const MatmulCase& value) {
  return "A = " + debug_string(value.a) + "\nB = " + debug_string(value.b);
}

// Shapes hostile to the vector remainder handling: n biased toward odd
// values and the 8/4/scalar split points, k biased below one vector width,
// sparse rows (possibly empty) in A.
Gen<MatmulCase> hostile_cases(std::size_t max_dim) {
  Gen<MatmulCase> gen;
  gen.generate = [max_dim](Rng& rng) {
    const auto dim = [&](void) -> std::size_t {
      if (rng.bernoulli(0.2)) return 1 + rng.uniform_index(9);  // tiny
      std::size_t d = 1 + rng.uniform_index(max_dim);
      if (rng.bernoulli(0.5)) d |= 1;  // force odd (remainder lanes)
      return d;
    };
    const std::size_t m = dim();
    const std::size_t k = rng.bernoulli(0.3) ? 1 + rng.uniform_index(3) : dim();
    const std::size_t n = dim();
    const double density = rng.bernoulli(0.3) ? 0.1 : rng.uniform(0.05, 1.0);
    MatmulCase out{Matrix(m, k), Matrix(k, n)};
    for (std::size_t i = 0; i < out.a.size(); ++i) {
      out.a.data()[i] = rng.bernoulli(density) ? rng.uniform(-3.0, 3.0) : 0.0;
    }
    for (std::size_t i = 0; i < out.b.size(); ++i) {
      out.b.data()[i] = rng.uniform(-3.0, 3.0);
    }
    return out;
  };
  return gen;
}

class SimdOracle : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!simd::avx2_supported()) {
      GTEST_SKIP() << "AVX2+FMA unavailable on this host/build";
    }
  }
};

TEST_F(SimdOracle, MatmulAvx2WithinContractionBoundOfScalar) {
  CHECK_PROPERTY(
      "avx2 matmul within 2*k*u*sum|a*b| of scalar, per element",
      hostile_cases(70),
      [&](const MatmulCase& c) {
        Matrix scalar_out, avx2_out;
        {
          simd::ScopedIsa isa(simd::Isa::Scalar);
          matmul_into(c.a, c.b, scalar_out);
        }
        {
          simd::ScopedIsa isa(simd::Isa::Avx2);
          matmul_into(c.a, c.b, avx2_out);
        }
        return within_bound(avx2_out, scalar_out, contraction_bound(c.a, c.b));
      },
      {.iterations = 60});
}

TEST_F(SimdOracle, Avx2VariantsBitIdenticalWithinIsa) {
  simd::ScopedIsa isa(simd::Isa::Avx2);
  ThreadPool pool(4);
  Matrix out;  // reused: dirty-destination path included
  CHECK_PROPERTY(
      "within AVX2: wrapper == _into == CSR (serial and pooled)",
      hostile_cases(48),
      [&](const MatmulCase& c) {
        const Matrix expected = matmul(c.a, c.b);
        matmul_into(c.a, c.b, out);
        if (!bit_identical(out, expected)) return false;
        // Dense-vs-CSR identity (fma(0, b, acc) == acc mirrors the scalar
        // zero-skip) must keep holding under AVX2.
        const CsrMatrix csr = CsrMatrix::from_dense(c.a);
        spmm_into(csr, c.b, out, nullptr);
        if (!bit_identical(out, expected)) return false;
        spmm_into(csr, c.b, out, &pool);
        return bit_identical(out, expected);
      },
      {.iterations = 40});
}

TEST_F(SimdOracle, SpmmAvx2WithinContractionBoundOfScalar) {
  CHECK_PROPERTY(
      "avx2 spmm within the per-row nnz contraction bound of scalar",
      hostile_cases(70),
      [&](const MatmulCase& c) {
        const CsrMatrix csr = CsrMatrix::from_dense(c.a);
        Matrix scalar_out, avx2_out;
        {
          simd::ScopedIsa isa(simd::Isa::Scalar);
          spmm_into(csr, c.b, scalar_out, nullptr);
        }
        {
          simd::ScopedIsa isa(simd::Isa::Avx2);
          spmm_into(csr, c.b, avx2_out, nullptr);
        }
        // The dense-A bound over-counts rows with structural zeros; the
        // sparse kernels skip exactly those terms on both ISAs, so the
        // dense bound remains an upper bound on the real per-row one.
        return within_bound(avx2_out, scalar_out, contraction_bound(c.a, c.b));
      },
      {.iterations = 60});
}

// Fixed sweep of every vector-remainder split: n crosses the 8-wide and
// 4-wide lane boundaries, k stays at or below one vector, m exercises the
// 2-row pairing remainder.
TEST_F(SimdOracle, RemainderLaneSweepMatchesScalarWithinBound) {
  Rng rng(20260808);
  for (std::size_t m : {1u, 2u, 3u}) {
    for (std::size_t k : {1u, 2u, 3u, 4u, 5u}) {
      for (std::size_t n = 1; n <= 17; ++n) {
        Matrix a(m, k), b(k, n);
        for (std::size_t i = 0; i < a.size(); ++i) {
          a.data()[i] = rng.uniform(-1.0, 1.0);
        }
        for (std::size_t i = 0; i < b.size(); ++i) {
          b.data()[i] = rng.uniform(-1.0, 1.0);
        }
        Matrix scalar_out, avx2_out;
        {
          simd::ScopedIsa isa(simd::Isa::Scalar);
          matmul_into(a, b, scalar_out);
        }
        {
          simd::ScopedIsa isa(simd::Isa::Avx2);
          matmul_into(a, b, avx2_out);
        }
        EXPECT_TRUE(
            within_bound(avx2_out, scalar_out, contraction_bound(a, b)))
            << m << "x" << k << "x" << n;
      }
    }
  }
}

// The dense AVX2 kernel runs 4-row tiles and finishes remainder rows with
// the 2-row and 1-row tiles; every element must still be one ascending-k
// fma chain, so a whole-matrix call equals calling the kernel one row at a
// time. Rows 1-9 cover every 4/2/1 remainder, the column counts every
// 8/4/scalar column split, and k runs from one term to the widest layer.
TEST_F(SimdOracle, RowTilesMatchOneRowAtATimeBitwise) {
  simd::ScopedIsa isa(simd::Isa::Avx2);
  Rng rng(20261017);
  for (std::size_t m = 1; m <= 9; ++m) {
    for (std::size_t n : {1u, 4u, 8u, 12u, 32u, 48u, 64u}) {
      for (std::size_t k : {1u, 12u, 32u, 64u}) {
        Matrix a(m, k), b(k, n);
        for (std::size_t i = 0; i < a.size(); ++i) {
          a.data()[i] = rng.uniform(-3.0, 3.0);
        }
        for (std::size_t i = 0; i < b.size(); ++i) {
          b.data()[i] = rng.uniform(-3.0, 3.0);
        }
        Matrix whole, by_row(m, n);
        matmul_into(a, b, whole);
        for (std::size_t i = 0; i < m; ++i) {
          detail::matmul_rows_dispatch(a, b, by_row, i, i + 1);
        }
        EXPECT_TRUE(bit_identical(whole, by_row))
            << m << "x" << k << "x" << n;
      }
    }
  }
}

// --- edge cases shared by both ISAs ---

class SpmmEdgeCases : public ::testing::TestWithParam<simd::Isa> {
 protected:
  void SetUp() override {
    if (GetParam() == simd::Isa::Avx2 && !simd::avx2_supported()) {
      GTEST_SKIP() << "AVX2+FMA unavailable on this host/build";
    }
  }
};

TEST_P(SpmmEdgeCases, ZeroNnzAndEmptyShapesProduceExactZeros) {
  simd::ScopedIsa isa(GetParam());

  // All-zero matrix -> zero-nnz CSR: the output is exactly the reshape fill.
  const CsrMatrix zero_nnz = CsrMatrix::from_dense(Matrix(4, 5));
  ASSERT_EQ(zero_nnz.nnz(), 0u);
  Matrix b(5, 7, 3.25);
  Matrix out(1, 1, 99.0);  // dirty destination
  spmm_into(zero_nnz, b, out, nullptr);
  EXPECT_TRUE(bit_identical(out, Matrix(4, 7)));

  // Empty rows interleaved with populated ones.
  Matrix mixed(4, 5);
  mixed(1, 2) = 2.0;
  mixed(3, 0) = -1.5;
  const CsrMatrix csr = CsrMatrix::from_dense(mixed);
  spmm_into(csr, b, out, nullptr);
  EXPECT_TRUE(bit_identical(out, matmul(mixed, b)));

  // Zero-row and zero-column extents.
  const CsrMatrix no_rows = CsrMatrix::from_dense(Matrix(0, 5));
  spmm_into(no_rows, b, out, nullptr);
  EXPECT_EQ(out.rows(), 0u);
  EXPECT_EQ(out.cols(), 7u);

  const Matrix no_cols(5, 0);
  spmm_into(csr, no_cols, out, nullptr);
  EXPECT_EQ(out.rows(), 4u);
  EXPECT_EQ(out.cols(), 0u);

  Matrix dense_out;
  matmul_into(Matrix(0, 3), Matrix(3, 4), dense_out);
  EXPECT_EQ(dense_out.rows(), 0u);
  matmul_into(mixed, no_cols, dense_out);
  EXPECT_EQ(dense_out.cols(), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothIsas, SpmmEdgeCases,
                         ::testing::Values(simd::Isa::Scalar, simd::Isa::Avx2),
                         [](const auto& info) {
                           return std::string(simd::isa_name(info.param));
                         });

// --- alignment regression (kMatrixAlignment) ---

bool is_aligned(const double* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kMatrixAlignment == 0;
}

TEST(MatrixAlignment, HeapBlocksAre32ByteAligned) {
  for (std::size_t rows : {1u, 2u, 3u, 7u, 64u}) {
    for (std::size_t cols : {1u, 3u, 5u, 8u, 17u}) {
      Matrix m(rows, cols);
      EXPECT_TRUE(is_aligned(m.data())) << rows << "x" << cols;
      m.reshape(cols, rows);  // capacity-reusing path keeps the block
      EXPECT_TRUE(is_aligned(m.data())) << "after reshape";
      Matrix copy = m;
      EXPECT_TRUE(is_aligned(copy.data())) << "copy";
    }
  }
}

TEST(MatrixAlignment, WorkspaceLeasesStayAlignedAcrossRecycling) {
  Workspace& workspace = Workspace::local();
  // Ragged shapes cycling through the pool: every lease, fresh or
  // recycled, must hand out an aligned block (the SIMD kernels tolerate
  // unaligned data, but the allocator contract promises alignment and the
  // bench attribution assumes it).
  for (int round = 0; round < 3; ++round) {
    Workspace::Lease a = workspace.acquire(3, 5);
    Workspace::Lease b = workspace.acquire(17, 1);
    Workspace::Lease c = workspace.acquire(7, 9);
    EXPECT_TRUE(is_aligned(a.get().data()));
    EXPECT_TRUE(is_aligned(b.get().data()));
    EXPECT_TRUE(is_aligned(c.get().data()));
    a.get().reshape(5, 3);
    EXPECT_TRUE(is_aligned(a.get().data()));
  }
}

}  // namespace
}  // namespace cfgx
