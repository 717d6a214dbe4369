// What the row-tiled inference passes (DESIGN.md decision 18) share with
// each other and with the plain kernels. GnnClassifier::embed_into and
// ExplainerModel::score_nodes_into gather the rows they need into small
// tiles and run every per-row stage on a tile while it is cache-resident,
// instead of streaming whole N-row matrices between kernels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "nn/matrix.hpp"
#include "obs/metrics.hpp"

namespace cfgx {

class ThreadPool;

// Rows per tile for a pass whose widest row holds `widest_cols` doubles: as
// many as fit 16 KiB (three tiles stay in L1), rounded down to a multiple
// of 4 (the AVX2 dense kernel's row tile), and at least 4.
std::size_t tile_rows(std::size_t widest_cols) noexcept;

// The calling thread's tile buffer `slot` (0-2), reshaped to rows x cols
// and zero-filled. Thread-local and outside the Workspace pool: a pass
// allocates nothing once every slot has reached its largest shape, and the
// pool's N-row buffers are never lent to tiles.
Matrix& tile_buffer(std::size_t slot, std::size_t rows, std::size_t cols);

// Splits [0, extent) into at most pool->worker_count() contiguous chunks
// and runs body(begin, end) for each on the pool; with no pool or a single
// item it runs body(0, extent) inline. Chunks are disjoint, so the body may
// write its own output rows without synchronization.
void parallel_ranges(ThreadPool* pool, std::size_t extent,
                     const std::function<void(std::size_t, std::size_t)>& body);

enum class Kernel : std::uint8_t { Matmul, Spmm };

// Counts one call of `kernel` in kernel.<name>.calls and its per-ISA split
// kernel.<name>.calls.<isa>, and times its own lifetime into
// kernel.<name>.seconds. A fused pass counts as one call of the kernel
// that starts it.
class KernelCall {
 public:
  explicit KernelCall(Kernel kernel);

  KernelCall(const KernelCall&) = delete;
  KernelCall& operator=(const KernelCall&) = delete;

 private:
  obs::ScopedDurationTimer timer_;
};

}  // namespace cfgx
