#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace cfgx {
namespace {

TEST(ThreadPoolTest, DefaultHasAtLeastOneWorker) {
  ThreadPool pool;
  EXPECT_GE(pool.worker_count(), 1u);
}

TEST(ThreadPoolTest, ExplicitWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
}

TEST(ThreadPoolTest, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  pool.submit([&] { value = 42; }).get();
  EXPECT_EQ(value.load(), 42);
}

TEST(ThreadPoolTest, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstError) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 3) throw std::logic_error("bad");
                                 }),
               std::logic_error);
}

TEST(ThreadPoolTest, ParallelForAccumulatesCorrectSum) {
  ThreadPool pool(4);
  std::vector<long> partial(1000, 0);
  pool.parallel_for(1000, [&](std::size_t i) {
    partial[i] = static_cast<long>(i);
  });
  const long total = std::accumulate(partial.begin(), partial.end(), 0L);
  EXPECT_EQ(total, 999L * 1000L / 2);
}

// Regression: a parallel_for issued from inside one of the pool's own
// workers used to deadlock — the worker blocked in future.get() while its
// sub-tasks sat behind it in the queue. A 1-thread pool makes the hang
// deterministic; the fix runs reentrant calls inline.
TEST(ThreadPoolTest, NestedParallelForFromWorkerCompletes) {
  ThreadPool pool(1);
  std::vector<std::atomic<int>> hits(16);
  pool.parallel_for(4, [&](std::size_t outer) {
    pool.parallel_for(4, [&](std::size_t inner) {
      hits[outer * 4 + inner].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForFromSubmittedTaskCompletes) {
  ThreadPool pool(1);
  std::atomic<int> total{0};
  pool.submit([&] {
        pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
      })
      .get();
  EXPECT_EQ(total.load(), 8);
}

TEST(ThreadPoolTest, InWorkerThreadDetection) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.in_worker_thread());
  std::atomic<bool> seen_inside{false};
  pool.submit([&] { seen_inside = pool.in_worker_thread(); }).get();
  EXPECT_TRUE(seen_inside.load());

  // A different pool's worker is NOT a worker of this pool: its
  // parallel_for still dispatches to its own queue.
  ThreadPool other(2);
  std::atomic<bool> cross{true};
  other.submit([&] { cross = pool.in_worker_thread(); }).get();
  EXPECT_FALSE(cross.load());
}

// Chunked dispatch must preserve the exception contract: every index is
// attempted and the first error in index order is rethrown.
TEST(ThreadPoolTest, ChunkedParallelForAttemptsAllIndicesDespiteThrow) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  EXPECT_THROW(pool.parallel_for(50,
                                 [&](std::size_t i) {
                                   hits[i].fetch_add(1);
                                   if (i % 7 == 0) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForCountBelowWorkerCount) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Rounding the chunk size up can leave fewer chunks than workers (5 on 4
// workers is 2+2+1); no chunk may start past the end. Such a chunk's length
// underflows, so an out-of-range index aborts rather than loop for 2^64
// calls.
TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnceForAnyCountAndWorkers) {
  for (std::size_t workers = 1; workers <= 8; ++workers) {
    ThreadPool pool(workers);
    for (std::size_t count = 1; count <= 64; ++count) {
      std::vector<std::atomic<int>> hits(count);
      pool.parallel_for(count, [&](std::size_t i) {
        if (i >= count) {
          std::fprintf(stderr, "index %zu of %zu on %zu workers\n", i, count,
                       workers);
          std::abort();
        }
        hits[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "index " << i << " of " << count << " on " << workers
            << " workers";
      }
    }
  }
}

TEST(ThreadPoolTest, ManyTasksDrainOnDestruction) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 64; ++i) {
      futures.push_back(pool.submit([&] { done.fetch_add(1); }));
    }
    for (auto& f : futures) f.get();
  }
  EXPECT_EQ(done.load(), 64);
}

}  // namespace
}  // namespace cfgx
