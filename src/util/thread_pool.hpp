// Fixed-size thread pool with a parallel_for helper.
//
// Used to parallelize per-graph explanation work and the sparse/dense
// matrix kernels (each unit of work writes a disjoint output region, so
// parallel execution does not perturb determinism). On a single-core
// machine the pool degrades gracefully to near-serial execution with
// identical results.
//
// Reentrancy: parallel_for called from one of this pool's own workers runs
// inline on the calling thread. A worker that blocked on futures for
// sub-tasks queued behind its own task would deadlock (most visibly with a
// 1-thread pool); inline execution preserves results and the exception
// contract.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace cfgx {

class ThreadPool {
 public:
  // worker_count == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t worker_count = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  // True when the calling thread is one of THIS pool's workers.
  bool in_worker_thread() const;

  // Enqueue a task; the returned future rethrows any task exception.
  // Throws std::logic_error once shutdown has begun: a task enqueued after
  // the workers were told to drain could be popped by no one, leaving its
  // future waiting forever — a latent hang in any long-running process
  // that races submission against teardown.
  std::future<void> submit(std::function<void()> task);

  // Runs fn(i) for i in [0, count), blocking until all complete. Indices
  // are dispatched as at most worker_count() contiguous chunks (one queue
  // entry per chunk, not per index). Every index is attempted even when an
  // earlier one throws; the first exception in index order is rethrown.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  // Enqueue timestamp rides along so workers can report queue wait time;
  // it is only populated (and the clock only read) while metrics are on.
  // The worker fulfils `done` only after recording the task's metrics, so
  // a caller whose future is ready sees every sample of that task.
  struct QueuedTask {
    std::function<void()> task;
    std::promise<void> done;
    double enqueued_seconds = 0.0;
  };

  std::vector<std::thread> workers_;
  std::queue<QueuedTask> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace cfgx
