// Workspace scratch-buffer pool: recycling behaviour, lease semantics, the
// reshape/capacity contract the `_into` kernels rely on, and the
// bit-identity of the destination-passing kernels with their value-returning
// wrappers on small fixed shapes (random shapes live in the `prop` suite).
#include "nn/workspace.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "nn/layers.hpp"
#include "nn/matrix.hpp"
#include "nn/sparse.hpp"
#include "obs/metrics.hpp"

namespace cfgx {
namespace {

bool bit_identical(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(MatrixReshape, ZeroFillsAndKeepsCapacity) {
  Matrix m(4, 5);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = 1.0 + i;
  const std::size_t cap = m.capacity();
  ASSERT_GE(cap, 20u);

  m.reshape(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_GE(m.capacity(), cap);  // shrink never releases the block
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0);

  m.reshape(0, 7);  // zero elements, shape still recorded
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 7u);
  EXPECT_EQ(m.size(), 0u);
}

TEST(WorkspaceTest, AcquireReturnsZeroFilledShape) {
  Workspace workspace;
  Workspace::Lease lease = workspace.acquire(3, 4);
  EXPECT_EQ(lease->rows(), 3u);
  EXPECT_EQ(lease->cols(), 4u);
  for (std::size_t i = 0; i < lease->size(); ++i) {
    EXPECT_EQ(lease->data()[i], 0.0);
  }
}

TEST(WorkspaceTest, ReleasedBufferIsRecycled) {
  const bool saved = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  auto& reused =
      obs::MetricsRegistry::global().counter("workspace.bytes_reused");
  auto& allocated =
      obs::MetricsRegistry::global().counter("workspace.bytes_allocated");

  Workspace workspace;
  const double* block = nullptr;
  {
    Workspace::Lease lease = workspace.acquire(8, 8);
    lease->fill(3.5);
    block = lease->data();
    EXPECT_EQ(workspace.pooled_count(), 0u);
  }
  EXPECT_EQ(workspace.pooled_count(), 1u);
  EXPECT_GE(workspace.pooled_capacity(), 64u);

  const std::uint64_t reused_before = reused.value();
  const std::uint64_t allocated_before = allocated.value();
  {
    // Smaller request served from the same heap block, zero-filled again.
    Workspace::Lease lease = workspace.acquire(4, 4);
    EXPECT_EQ(lease->data(), block);
    for (std::size_t i = 0; i < lease->size(); ++i) {
      EXPECT_EQ(lease->data()[i], 0.0);
    }
    EXPECT_EQ(workspace.pooled_count(), 0u);
  }
  EXPECT_EQ(reused.value() - reused_before, 16u * sizeof(double));
  EXPECT_EQ(allocated.value(), allocated_before);

  obs::set_metrics_enabled(saved);
}

TEST(WorkspaceTest, BestFitPrefersSmallestSufficientBuffer) {
  Workspace workspace;
  const double* small_block = nullptr;
  const double* big_block = nullptr;
  {
    Workspace::Lease big = workspace.acquire(16, 16);
    Workspace::Lease small = workspace.acquire(2, 2);
    big_block = big->data();
    small_block = small->data();
  }
  EXPECT_EQ(workspace.pooled_count(), 2u);
  Workspace::Lease lease = workspace.acquire(2, 2);
  EXPECT_EQ(lease->data(), small_block);
  Workspace::Lease lease_big = workspace.acquire(10, 10);
  EXPECT_EQ(lease_big->data(), big_block);
}

TEST(WorkspaceTest, ZeroSizedLeaseNeverPoolsUseless) {
  Workspace workspace;
  { Workspace::Lease lease = workspace.acquire(0, 0); }
  // A never-grown zero-capacity buffer would only slow the pool scan down.
  EXPECT_EQ(workspace.pooled_count(), 0u);
}

TEST(WorkspaceTest, LeaseMoveTransfersOwnership) {
  Workspace workspace;
  Workspace::Lease a = workspace.acquire(3, 3);
  const double* block = a->data();
  Workspace::Lease b = std::move(a);
  EXPECT_EQ(b->data(), block);
  EXPECT_EQ(workspace.pooled_count(), 0u);  // no double release on a's death

  Workspace::Lease c = workspace.acquire(2, 2);
  c = std::move(b);  // move-assign releases c's old buffer first
  EXPECT_EQ(c->data(), block);
  EXPECT_EQ(workspace.pooled_count(), 1u);
}

TEST(WorkspaceTest, ClearDropsPooledBuffers) {
  Workspace workspace;
  { Workspace::Lease lease = workspace.acquire(5, 5); }
  ASSERT_EQ(workspace.pooled_count(), 1u);
  workspace.clear();
  EXPECT_EQ(workspace.pooled_count(), 0u);
  EXPECT_EQ(workspace.pooled_capacity(), 0u);
}

TEST(WorkspaceTest, LocalIsStableAcrossCalls) {
  EXPECT_EQ(&Workspace::local(), &Workspace::local());
}

TEST(WorkspaceTest, OversizedBufferAgesOutDespiteBorrowedUse) {
  Workspace workspace;
  workspace.set_trim_after(4);
  { Workspace::Lease big = workspace.acquire(32, 32); }  // acquisition 1
  ASSERT_EQ(workspace.pooled_count(), 1u);
  ASSERT_GE(workspace.pooled_capacity(), 1024u);
  // Small leases borrow the big buffer (best fit) but never fill half its
  // capacity, so its right-sized stamp stays pinned at acquisition 1.
  for (int i = 0; i < 4; ++i) {  // acquisitions 2..5: age 1..4, kept
    Workspace::Lease small = workspace.acquire(2, 2);
    EXPECT_GE(small->capacity(), 1024u) << "borrowed the oversized block";
  }
  EXPECT_EQ(workspace.pooled_count(), 1u);
  EXPECT_GE(workspace.pooled_capacity(), 1024u);
  // Acquisition 6: age 5 > 4 trims the oversized block; the request is
  // served by a fresh right-sized allocation instead.
  { Workspace::Lease small = workspace.acquire(2, 2); }
  EXPECT_EQ(workspace.pooled_count(), 1u);
  EXPECT_LT(workspace.pooled_capacity(), 1024u);
}

TEST(WorkspaceTest, SteadySameShapeReuseNeverTrims) {
  Workspace workspace;
  workspace.set_trim_after(4);
  const double* block = nullptr;
  {
    Workspace::Lease lease = workspace.acquire(8, 8);
    block = lease->data();
  }
  // Every reuse fills the whole buffer, refreshing its age: the same heap
  // block serves all 100 acquisitions, far beyond the trim window.
  for (int i = 0; i < 100; ++i) {
    Workspace::Lease lease = workspace.acquire(8, 8);
    EXPECT_EQ(lease->data(), block);
  }
  EXPECT_EQ(workspace.pooled_count(), 1u);
}

TEST(WorkspaceTest, TrimZeroDisablesAging) {
  Workspace workspace;
  workspace.set_trim_after(0);
  { Workspace::Lease big = workspace.acquire(32, 32); }
  for (int i = 0; i < 100; ++i) {
    Workspace::Lease small = workspace.acquire(2, 2);
  }
  // The oversized block survives 100 poor-fit uses: nothing ever trimmed.
  EXPECT_EQ(workspace.pooled_count(), 1u);
  EXPECT_GE(workspace.pooled_capacity(), 1024u);
}

TEST(WorkspaceTest, BytesRetainedGaugeTracksPoolDeltas) {
  const bool saved = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  auto& retained =
      obs::MetricsRegistry::global().gauge("workspace.bytes_retained");
  const double before = retained.value();

  Workspace workspace;
  { Workspace::Lease lease = workspace.acquire(8, 8); }
  EXPECT_EQ(retained.value() - before,
            static_cast<double>(workspace.bytes_retained()));
  EXPECT_GE(workspace.bytes_retained(), 64u * sizeof(double));

  workspace.clear();
  EXPECT_EQ(workspace.bytes_retained(), 0u);
  EXPECT_EQ(retained.value(), before);

  obs::set_metrics_enabled(saved);
}

// The serve regression: heterogeneous graph sizes on one long-lived thread
// must not grow retained bytes without bound. Mixed-size scratch traffic
// with an occasional one-off giant lease plateaus because the giant buffer
// ages out of the pool.
TEST(WorkspaceTest, MixedSizeServingTrafficPlateausRetainedBytes) {
  Workspace workspace;
  workspace.set_trim_after(16);

  auto serve_cycle = [&](std::size_t nodes) {
    // Rough shape of one explanation: a features-sized lease, an
    // embeddings-sized lease, and a scores-sized lease.
    Workspace::Lease f = workspace.acquire(nodes, 12);
    Workspace::Lease e = workspace.acquire(nodes, 32);
    Workspace::Lease s = workspace.acquire(nodes, 1);
  };

  // Warm up with the steady mix, then spike one giant graph.
  const std::size_t sizes[] = {16, 24, 64, 48};
  for (int round = 0; round < 8; ++round) {
    for (std::size_t n : sizes) serve_cycle(n);
  }
  serve_cycle(2048);  // the spike
  const std::size_t after_spike = workspace.bytes_retained();
  ASSERT_GE(after_spike, 2048u * 32u * sizeof(double));

  // Steady mixed traffic again: the spike's buffers age out and retained
  // bytes fall back to the steady working set.
  for (int round = 0; round < 16; ++round) {
    for (std::size_t n : sizes) serve_cycle(n);
  }
  const std::size_t settled = workspace.bytes_retained();
  EXPECT_LT(settled, after_spike);
  EXPECT_LT(settled, 2048u * 32u * sizeof(double));
  // Plateau: the retention peak over one window of continued traffic equals
  // the peak over the next (the deterministic reuse pattern has settled
  // into a bounded cycle — no unbounded growth).
  auto peak_over_rounds = [&](int rounds) {
    std::size_t peak = 0;
    for (int round = 0; round < rounds; ++round) {
      for (std::size_t n : sizes) serve_cycle(n);
      peak = std::max(peak, workspace.bytes_retained());
    }
    return peak;
  };
  const std::size_t first_window = peak_over_rounds(16);
  const std::size_t second_window = peak_over_rounds(16);
  EXPECT_LE(second_window, first_window);
  EXPECT_LT(second_window, after_spike);
}

// Paper-scale regression: steady-state serving traffic that includes one
// giant graph (n = 7352, the largest CFG in the paper's dataset) must run
// allocation-free once warm, and retained bytes must plateau — the giant
// buffers are right-sized every cycle, so they are never trimmed, and the
// pool settles at the giant working set instead of growing without bound.
TEST(WorkspaceTest, PaperScaleGiantGraphSteadyStateIsAllocationFree) {
  const bool saved = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  auto& allocated =
      obs::MetricsRegistry::global().counter("workspace.bytes_allocated");

  Workspace workspace;
  workspace.set_trim_after(16);

  auto serve_cycle = [&](std::size_t nodes) {
    // Rough shape of one paper-scale explanation: features, two GCN layer
    // activations, and a score column.
    Workspace::Lease f = workspace.acquire(nodes, 12);
    Workspace::Lease h0 = workspace.acquire(nodes, 32);
    Workspace::Lease h1 = workspace.acquire(nodes, 16);
    Workspace::Lease s = workspace.acquire(nodes, 1);
  };

  const std::size_t sizes[] = {64, 256, 7352, 128};  // giant in the mix
  for (int round = 0; round < 4; ++round) {
    for (std::size_t n : sizes) serve_cycle(n);
  }

  // Steady state: every shape has been seen, so no cycle allocates.
  const std::uint64_t allocated_before = allocated.value();
  const std::size_t retained_before = workspace.bytes_retained();
  std::size_t retained_peak = 0;
  const int cycles = 2 * static_cast<int>(workspace.trim_after());
  for (int round = 0; round < cycles; ++round) {
    for (std::size_t n : sizes) serve_cycle(n);
    retained_peak = std::max(retained_peak, workspace.bytes_retained());
  }
  EXPECT_EQ(allocated.value(), allocated_before)
      << "steady-state paper-scale traffic must not touch the heap";
  // Plateau: after trim_after cycles with the giant still in the mix, the
  // pool neither grows nor sheds the giant's right-sized buffers.
  EXPECT_EQ(workspace.bytes_retained(), retained_before);
  EXPECT_EQ(retained_peak, retained_before);
  EXPECT_GE(retained_before, 7352u * 32u * sizeof(double));

  obs::set_metrics_enabled(saved);
}

TEST(IntoKernels, MatchValueReturningWrappersOnFixedShapes) {
  Matrix a{{1.0, -2.0, 0.5}, {0.0, 3.0, -1.0}};
  Matrix b{{2.0, 0.0}, {1.0, -1.5}, {0.25, 4.0}};

  Matrix out;
  matmul_into(a, b, out);
  EXPECT_TRUE(bit_identical(out, matmul(a, b)));

  Matrix tall{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  matmul_transpose_a_into(tall, tall, out);
  EXPECT_TRUE(bit_identical(out, matmul_transpose_a(tall, tall)));

  matmul_transpose_b_into(a, Matrix{{1.0, 0.5, 2.0}}, out);
  EXPECT_TRUE(bit_identical(out, matmul_transpose_b(a, Matrix{{1.0, 0.5, 2.0}})));

  const CsrMatrix csr = CsrMatrix::from_dense(a);
  spmm_into(csr, b, out);
  EXPECT_TRUE(bit_identical(out, spmm(csr, b)));

  Matrix rhs{{1.0, -1.0}, {2.0, 0.5}};
  spmm_transpose_a_into(csr, rhs, out);
  EXPECT_TRUE(bit_identical(out, spmm_transpose_a(csr, rhs)));
}

TEST(IntoKernels, DirtyDestinationIsFullyOverwritten) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix out(7, 9, 123.0);  // wrong shape AND non-zero contents
  matmul_into(a, a, out);
  EXPECT_TRUE(bit_identical(out, matmul(a, a)));
}

TEST(IntoKernels, EmptyAndOneByOneShapes) {
  Matrix empty(0, 3);
  Matrix b(3, 0);
  Matrix out;
  matmul_into(empty, Matrix(3, 4), out);
  EXPECT_EQ(out.rows(), 0u);
  EXPECT_EQ(out.cols(), 4u);
  matmul_into(Matrix(2, 3), b, out);
  EXPECT_EQ(out.rows(), 2u);
  EXPECT_EQ(out.cols(), 0u);

  Matrix one{{2.5}};
  matmul_into(one, one, out);
  EXPECT_EQ(out.rows(), 1u);
  EXPECT_EQ(out.cols(), 1u);
  EXPECT_EQ(out(0, 0), 6.25);
}

// The fused inference passes compute only the live rows of each product,
// one row range at a time, into zero-filled tiles. Running the row kernels
// over the live rows alone must reproduce the full kernels' bits on live
// rows and leave masked rows at exactly +0.0.
TEST(IntoKernels, LiveRowsVariantsSkipMaskedRowsOnly) {
  Matrix a{{1.0, -2.0}, {3.0, 4.0}, {-0.5, 0.25}, {2.0, 2.0}};
  Matrix b{{2.0, 0.5, -1.0}, {1.0, -1.5, 0.0}};
  const std::vector<double> live = {1.0, 0.0, 0.3, 0.0};
  const auto is_plus_zero = [](double v) {
    const double zero = 0.0;
    return std::memcmp(&v, &zero, sizeof v) == 0;
  };

  Matrix full;
  matmul_into(a, b, full);
  Matrix masked(full.rows(), full.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    if (live[r] != 0.0) detail::matmul_rows_dispatch(a, b, masked, r, r + 1);
  }
  for (std::size_t r = 0; r < full.rows(); ++r) {
    for (std::size_t c = 0; c < full.cols(); ++c) {
      if (live[r] != 0.0) {
        EXPECT_EQ(masked(r, c), full(r, c));
      } else {
        EXPECT_TRUE(is_plus_zero(masked(r, c)));
      }
    }
  }
  // The whole row range is the full kernel.
  Matrix all_rows(full.rows(), full.cols());
  detail::matmul_rows_dispatch(a, b, all_rows, 0, a.rows());
  EXPECT_TRUE(bit_identical(all_rows, full));

  const CsrMatrix csr = CsrMatrix::from_dense(a);
  Matrix sp_full;
  spmm_into(csr, b, sp_full);
  Matrix sp_masked(sp_full.rows(), sp_full.cols());
  for (std::size_t r = 0; r < csr.rows(); ++r) {
    if (live[r] != 0.0) {
      detail::spmm_row_dispatch(csr, r, b, sp_masked.data() + r * b.cols());
    }
  }
  for (std::size_t r = 0; r < sp_full.rows(); ++r) {
    for (std::size_t c = 0; c < sp_full.cols(); ++c) {
      if (live[r] != 0.0) {
        EXPECT_EQ(sp_masked(r, c), sp_full(r, c));
      } else {
        EXPECT_TRUE(is_plus_zero(sp_masked(r, c)));
      }
    }
  }
}

TEST(IntoKernels, MatmulIntoThrowsOnShapeMismatch) {
  Matrix a(2, 3), b(4, 2), out;
  EXPECT_THROW(matmul_into(a, b, out), std::invalid_argument);
}

TEST(ModuleForwardInto, MatchesForwardForEveryHotModule) {
  Rng rng(7);
  Dense dense(5, 8, rng);
  Relu relu;
  Sigmoid sigmoid;
  SoftmaxRows softmax;

  Matrix input(4, 5);
  Rng data_rng(11);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input.data()[i] = data_rng.uniform(-2.0, 2.0);
  }

  Matrix out(9, 9, 5.0);  // dirty destination
  dense.forward_into(input, out);
  EXPECT_TRUE(bit_identical(out, dense.forward(input)));
  relu.forward_into(input, out);
  EXPECT_TRUE(bit_identical(out, relu.forward(input)));
  sigmoid.forward_into(input, out);
  EXPECT_TRUE(bit_identical(out, sigmoid.forward(input)));
  softmax.forward_into(input, out);
  EXPECT_TRUE(bit_identical(out, softmax.forward(input)));
}

}  // namespace
}  // namespace cfgx
