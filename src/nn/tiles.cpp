#include "nn/tiles.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "nn/simd.hpp"
#include "util/thread_pool.hpp"

namespace cfgx {
namespace {

struct KernelMetrics {
  obs::Counter& calls;
  obs::Counter& scalar_calls;
  obs::Counter& avx2_calls;
  obs::Histogram& seconds;
};

KernelMetrics metrics_named(const std::string& prefix) {
  auto& registry = obs::MetricsRegistry::global();
  return {registry.counter(prefix + ".calls"),
          registry.counter(prefix + ".calls.scalar"),
          registry.counter(prefix + ".calls.avx2"),
          registry.histogram(prefix + ".seconds")};
}

obs::Histogram& count_call(Kernel kernel) {
  static KernelMetrics metrics[] = {metrics_named("kernel.matmul"),
                                    metrics_named("kernel.spmm")};
  KernelMetrics& m = metrics[static_cast<std::size_t>(kernel)];
  m.calls.add();
  (simd::dispatch() == simd::Isa::Avx2 ? m.avx2_calls : m.scalar_calls).add();
  return m.seconds;
}

}  // namespace

std::size_t tile_rows(std::size_t widest_cols) noexcept {
  constexpr std::size_t kTileBytes = 16 * 1024;
  const std::size_t fit =
      kTileBytes / (sizeof(double) * std::max<std::size_t>(1, widest_cols));
  return std::max<std::size_t>(4, fit / 4 * 4);
}

Matrix& tile_buffer(std::size_t slot, std::size_t rows, std::size_t cols) {
  thread_local std::array<Matrix, 3> buffers;
  Matrix& buffer = buffers.at(slot);
  buffer.reshape(rows, cols);
  return buffer;
}

void parallel_ranges(ThreadPool* pool, std::size_t extent,
                     const std::function<void(std::size_t, std::size_t)>& body) {
  if (pool == nullptr || extent <= 1) {
    if (extent > 0) body(0, extent);
    return;
  }
  const std::size_t chunk_count = std::min(extent, pool->worker_count());
  const std::size_t chunk = (extent + chunk_count - 1) / chunk_count;
  pool->parallel_for(chunk_count, [&](std::size_t c) {
    const std::size_t begin = c * chunk;
    const std::size_t end = std::min(extent, begin + chunk);
    if (begin < end) body(begin, end);
  });
}

KernelCall::KernelCall(Kernel kernel) : timer_(count_call(kernel)) {}

}  // namespace cfgx
