#include "nn/sparse.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cfgx {
namespace {

Matrix random_dense(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal();
  return m;
}

// Random matrix at roughly CFG density (each row has a few non-zeros).
Matrix random_sparse(std::size_t rows, std::size_t cols, double density,
                     Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      if (rng.bernoulli(density)) m(i, j) = rng.normal();
    }
  }
  return m;
}

TEST(CsrMatrixTest, FromDenseToDenseRoundTrips) {
  Rng rng(1);
  const Matrix dense = random_sparse(17, 23, 0.1, rng);
  const CsrMatrix csr = CsrMatrix::from_dense(dense);
  EXPECT_EQ(csr.rows(), 17u);
  EXPECT_EQ(csr.cols(), 23u);
  EXPECT_EQ(csr.to_dense(), dense);
}

TEST(CsrMatrixTest, NnzCountsExactNonZeros) {
  const Matrix dense{{0.0, 1.5, 0.0}, {0.0, 0.0, 0.0}, {-2.0, 0.0, 3.0}};
  const CsrMatrix csr = CsrMatrix::from_dense(dense);
  EXPECT_EQ(csr.nnz(), 3u);
  EXPECT_NEAR(csr.density(), 3.0 / 9.0, 1e-15);
}

TEST(CsrMatrixTest, ThresholdDropsSmallEntries) {
  const Matrix dense{{1e-12, 1.0}, {0.5, -1e-12}};
  const CsrMatrix csr = CsrMatrix::from_dense(dense, 1e-9);
  EXPECT_EQ(csr.nnz(), 2u);
}

TEST(CsrMatrixTest, EmptyMatrix) {
  const CsrMatrix csr = CsrMatrix::from_dense(Matrix());
  EXPECT_EQ(csr.nnz(), 0u);
  EXPECT_TRUE(csr.empty());
  EXPECT_EQ(csr.density(), 0.0);
}

TEST(CsrMatrixTest, TransposeMatchesDenseTranspose) {
  Rng rng(2);
  const Matrix dense = random_sparse(9, 13, 0.2, rng);
  EXPECT_EQ(CsrMatrix::from_dense(dense).transpose().to_dense(),
            dense.transpose());
}

TEST(CsrMatrixTest, ConstructorRejectsInconsistentArrays) {
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1}, {0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1, 1}, {0}, {1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(CsrMatrix(1, 2, {0, 1}, {5}, {1.0}), std::invalid_argument);
}

// Property test: spmm(csr(A), H) == matmul(A, H) on random sparse matrices
// across shapes, densities and seeds (the CSR fast path must be a drop-in
// replacement for the dense reference).
TEST(SpmmTest, MatchesDenseMatmulOnRandomSparseMatrices) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    const std::size_t n = 2 + seed % 60;
    const std::size_t f = 1 + seed % 33;
    const double density = 0.02 + 0.02 * static_cast<double>(seed % 5);
    const Matrix a = random_sparse(n, n, density, rng);
    const Matrix h = random_dense(n, f, rng);
    EXPECT_TRUE(
        approx_equal(spmm(CsrMatrix::from_dense(a), h), matmul(a, h), 1e-12))
        << "seed " << seed;
  }
}

TEST(SpmmTest, TransposeAMatchesDenseReference) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(100 + seed);
    const std::size_t n = 2 + seed % 40;
    const std::size_t f = 1 + seed % 17;
    const Matrix a = random_sparse(n, n, 0.08, rng);
    const Matrix g = random_dense(n, f, rng);
    EXPECT_TRUE(approx_equal(spmm_transpose_a(CsrMatrix::from_dense(a), g),
                             matmul_transpose_a(a, g), 1e-12))
        << "seed " << seed;
  }
}

TEST(SpmmTest, RectangularOperands) {
  Rng rng(3);
  const Matrix a = random_sparse(7, 12, 0.3, rng);
  const Matrix b = random_dense(12, 5, rng);
  EXPECT_TRUE(approx_equal(spmm(CsrMatrix::from_dense(a), b), matmul(a, b), 1e-12));
  const Matrix g = random_dense(7, 4, rng);
  EXPECT_TRUE(approx_equal(spmm_transpose_a(CsrMatrix::from_dense(a), g),
                           matmul_transpose_a(a, g), 1e-12));
}

TEST(SpmmTest, ShapeMismatchThrows) {
  const CsrMatrix a = CsrMatrix::from_dense(Matrix(3, 4, 1.0));
  EXPECT_THROW(spmm(a, Matrix(3, 2)), std::invalid_argument);
  EXPECT_THROW(spmm_transpose_a(a, Matrix(4, 2)), std::invalid_argument);
}

TEST(SpmmTest, ParallelMatchesSerialExactly) {
  Rng rng(4);
  ThreadPool pool(4);
  const Matrix a = random_sparse(64, 64, 0.05, rng);
  const Matrix h = random_dense(64, 48, rng);
  const CsrMatrix csr = CsrMatrix::from_dense(a);
  // Bit-identical, not just approx: partitioning is over disjoint output
  // regions with unchanged accumulation order.
  EXPECT_EQ(spmm(csr, h, &pool), spmm(csr, h));
  EXPECT_EQ(spmm_transpose_a(csr, h, &pool), spmm_transpose_a(csr, h));
}

// Sparsity semantics: a structural zero contributes nothing, even against
// a non-finite operand — the skip is explicit in the representation.
TEST(SpmmTest, StructuralZeroesSkipNonFiniteOperandRows) {
  const Matrix a{{0.0, 1.0}, {0.0, 2.0}};  // column 0 never referenced
  Matrix b(2, 2, 1.0);
  b(0, 0) = std::numeric_limits<double>::quiet_NaN();
  b(0, 1) = std::numeric_limits<double>::infinity();
  const Matrix out = spmm(CsrMatrix::from_dense(a), b);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(std::isfinite(out.data()[i]));
  }
  // The dense reference now faithfully poisons the result instead.
  const Matrix dense_out = matmul(a, b);
  EXPECT_TRUE(std::isnan(dense_out(0, 0)));
}

TEST(BatchedCsrTest, ConcatBuildsBlockDiagonal) {
  Rng rng(7);
  const Matrix dense_a = random_sparse(3, 4, 0.4, rng);
  const Matrix dense_b = random_sparse(5, 2, 0.4, rng);
  const CsrMatrix a = CsrMatrix::from_dense(dense_a);
  const CsrMatrix b = CsrMatrix::from_dense(dense_b);

  const BatchedCsr batched = BatchedCsr::concat({&a, &b});
  ASSERT_EQ(batched.num_blocks(), 2u);
  EXPECT_EQ(batched.matrix().rows(), 8u);
  EXPECT_EQ(batched.matrix().cols(), 6u);
  EXPECT_EQ(batched.matrix().nnz(), a.nnz() + b.nnz());
  EXPECT_EQ(batched.range(0).begin, 0u);
  EXPECT_EQ(batched.range(0).end, 3u);
  EXPECT_EQ(batched.range(1).begin, 3u);
  EXPECT_EQ(batched.range(1).end, 5u + 3u);
  EXPECT_EQ(batched.range(1).size(), 5u);

  // Dense view is exactly block-diagonal: each block verbatim on the
  // diagonal, zeros everywhere else.
  const Matrix dense = batched.matrix().to_dense();
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      double expected = 0.0;
      if (i < 3 && j < 4) expected = dense_a(i, j);
      if (i >= 3 && j >= 4) expected = dense_b(i - 3, j - 4);
      EXPECT_EQ(dense(i, j), expected) << "(" << i << ", " << j << ")";
    }
  }
}

TEST(BatchedCsrTest, SpmmOverConcatIsBitIdenticalToPerBlockSpmm) {
  Rng rng(11);
  // Ragged block sizes, including a 1-row block.
  const std::vector<std::size_t> sizes = {5, 1, 9, 3};
  std::vector<Matrix> dense_blocks;
  std::vector<CsrMatrix> csr_blocks;
  for (std::size_t n : sizes) {
    dense_blocks.push_back(random_sparse(n, n, 0.3, rng));
    csr_blocks.push_back(CsrMatrix::from_dense(dense_blocks.back()));
  }
  std::vector<const CsrMatrix*> ptrs;
  for (const CsrMatrix& c : csr_blocks) ptrs.push_back(&c);
  const BatchedCsr batched = BatchedCsr::concat(ptrs);

  const std::size_t feat = 6;
  std::vector<Matrix> features;
  Matrix stacked(batched.matrix().rows(), feat);
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    features.push_back(random_dense(sizes[k], feat, rng));
    const BatchedCsr::Range& range = batched.range(k);
    for (std::size_t r = 0; r < sizes[k]; ++r) {
      for (std::size_t c = 0; c < feat; ++c) {
        stacked(range.begin + r, c) = features[k](r, c);
      }
    }
  }

  const Matrix batched_out = spmm(batched.matrix(), stacked);
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    const Matrix block_out = spmm(csr_blocks[k], features[k]);
    const BatchedCsr::Range& range = batched.range(k);
    for (std::size_t r = 0; r < sizes[k]; ++r) {
      for (std::size_t c = 0; c < feat; ++c) {
        // Bit-identical, not approximately equal: same additions in the
        // same order per output element.
        EXPECT_EQ(batched_out(range.begin + r, c), block_out(r, c))
            << "block " << k << " (" << r << ", " << c << ")";
      }
    }
  }
}

TEST(BatchedCsrTest, EmptyBlocksAndEmptyInput) {
  const BatchedCsr none = BatchedCsr::concat({});
  EXPECT_EQ(none.num_blocks(), 0u);
  EXPECT_TRUE(none.matrix().empty());

  const CsrMatrix empty;
  const CsrMatrix tiny = CsrMatrix::from_dense(Matrix{{1.0}});
  const BatchedCsr mixed = BatchedCsr::concat({&empty, &tiny, &empty});
  EXPECT_EQ(mixed.num_blocks(), 3u);
  EXPECT_EQ(mixed.matrix().rows(), 1u);
  EXPECT_EQ(mixed.range(0).size(), 0u);
  EXPECT_EQ(mixed.range(1).begin, 0u);
  EXPECT_EQ(mixed.range(1).end, 1u);
  EXPECT_EQ(mixed.matrix().to_dense()(0, 0), 1.0);
}

TEST(BatchedCsrTest, NullBlockThrows) {
  const CsrMatrix a = CsrMatrix::from_dense(Matrix{{1.0}});
  EXPECT_THROW(BatchedCsr::concat({&a, nullptr}), std::invalid_argument);
}

}  // namespace
}  // namespace cfgx
