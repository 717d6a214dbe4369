#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cfgx {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct PoolMetrics {
  obs::Counter& tasks_submitted;
  obs::Gauge& queue_depth;
  obs::Histogram& task_wait_seconds;
  obs::Histogram& task_run_seconds;

  static PoolMetrics& get() {
    static PoolMetrics metrics{
        obs::MetricsRegistry::global().counter("pool.tasks_submitted"),
        obs::MetricsRegistry::global().gauge("pool.queue_depth"),
        obs::MetricsRegistry::global().histogram("pool.task_wait_seconds"),
        obs::MetricsRegistry::global().histogram("pool.task_run_seconds")};
    return metrics;
  }
};

// Identifies the pool (if any) that owns the current thread, so
// parallel_for can detect reentrant calls and run inline instead of
// blocking on futures stuck behind the caller's own task.
thread_local const ThreadPool* current_worker_pool = nullptr;

// Runs fn over [0, count) on the calling thread with the parallel_for
// exception contract: every index is attempted, the first error rethrown.
void run_serial(std::size_t count, const std::function<void(std::size_t)>& fn) {
  std::exception_ptr first_error;
  for (std::size_t i = 0; i < count; ++i) {
    try {
      fn(i);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace

ThreadPool::ThreadPool(std::size_t worker_count) {
  if (worker_count == 0) {
    worker_count = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool ThreadPool::in_worker_thread() const {
  return current_worker_pool == this;
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  QueuedTask queued;
  queued.task = std::move(task);
  std::future<void> future = queued.done.get_future();
  const bool instrumented = obs::metrics_enabled();
  if (instrumented) queued.enqueued_seconds = now_seconds();
  std::size_t depth = 0;
  {
    std::lock_guard lock(mutex_);
    if (stopping_) {
      throw std::logic_error("ThreadPool::submit after shutdown began");
    }
    queue_.push(std::move(queued));
    depth = queue_.size();
  }
  cv_.notify_one();
  if (instrumented) {
    auto& metrics = PoolMetrics::get();
    metrics.tasks_submitted.add();
    metrics.queue_depth.set(static_cast<double>(depth));
  }
  return future;
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (count == 1 || in_worker_thread()) {
    // Reentrant call: this worker's sub-tasks would sit in the queue behind
    // the task it is currently running, and future.get() below would never
    // return on a saturated (worst case: 1-thread) pool.
    run_serial(count, fn);
    return;
  }

  // At most one contiguous chunk per worker instead of one queue entry per
  // index: small per-item bodies are otherwise dominated by packaged_task
  // allocation and queue-lock traffic. Rounding the chunk up can leave
  // fewer chunks than workers (count 5 on 4 workers: 2+2+1), so the loop
  // stops at `count` rather than at the worker count.
  const std::size_t workers = std::min(count, worker_count());
  const std::size_t chunk = (count + workers - 1) / workers;
  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (std::size_t begin = 0; begin < count; begin += chunk) {
    const std::size_t end = std::min(count, begin + chunk);
    futures.push_back(submit([&fn, begin, end] {
      run_serial(end - begin, [&fn, begin](std::size_t k) { fn(begin + k); });
    }));
  }
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::worker_loop() {
  current_worker_pool = this;
  for (;;) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping_ and drained
    QueuedTask queued = std::move(queue_.front());
    queue_.pop();
    const std::size_t depth = queue_.size();
    lock.unlock();
    const bool instrumented = obs::metrics_enabled();
    double start = 0.0;
    if (instrumented) {
      auto& metrics = PoolMetrics::get();
      metrics.queue_depth.set(static_cast<double>(depth));
      start = now_seconds();
      if (queued.enqueued_seconds > 0.0) {
        metrics.task_wait_seconds.record(start - queued.enqueued_seconds);
      }
    }
    std::exception_ptr error;
    {
      obs::TraceSpan span("pool.task", "pool");
      try {
        queued.task();
      } catch (...) {
        error = std::current_exception();
      }
    }
    if (instrumented) {
      PoolMetrics::get().task_run_seconds.record(now_seconds() - start);
    }
    if (error) {
      queued.done.set_exception(error);
    } else {
      queued.done.set_value();
    }
  }
}

}  // namespace cfgx
