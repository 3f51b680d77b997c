#include "msys/engine/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "msys/obs/metrics.hpp"

namespace msys::engine {

namespace {

/// Job counts (handles resolved once; one relaxed add per event).
struct PoolMetrics {
  obs::Counter& submitted = obs::counter("engine.pool.jobs_submitted");
  // Every refusal is counted here, and only here.
  obs::Counter& rejected = obs::counter("engine.pool.submit_refused");
  obs::Counter& completed = obs::counter("engine.pool.jobs_completed");

  static PoolMetrics& get() {
    static PoolMetrics metrics;
    return metrics;
  }
};

}  // namespace

ThreadPool::ThreadPool(unsigned n_threads) {
  const unsigned n = std::max(1u, n_threads);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::submit(std::function<void()> job) {
  PoolMetrics& metrics = PoolMetrics::get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      metrics.rejected.add();
      return false;
    }
    queue_.push_back(std::move(job));
  }
  metrics.submitted.add();
  work_cv_.notify_one();
  return true;
}

unsigned ThreadPool::hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::worker_loop() {
  PoolMetrics& metrics = PoolMetrics::get();
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain-before-stop: shutdown only wins once the queue is empty.
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
    metrics.completed.add();
  }
}

void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;
  std::size_t finished = 0;  // tasks that left the claim loop
  std::size_t error_index = n;
  std::exception_ptr error;

  auto claim_loop = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  };

  auto task = [&] {
    claim_loop();
    // Notify under the lock: the caller may destroy done_cv as soon as it
    // sees the last task finish, which it can only do once mu is free.
    const std::lock_guard<std::mutex> lock(mu);
    ++finished;
    done_cv.notify_all();
  };
  const std::size_t tasks = pool == nullptr ? 0 : std::min<std::size_t>(n, pool->size());
  std::size_t accepted = 0;
  while (accepted < tasks && pool->submit(task)) ++accepted;
  if (pool == nullptr || accepted < tasks) claim_loop();

  std::unique_lock<std::mutex> lock(mu);
  done_cv.wait(lock, [&] { return finished == accepted; });
  if (error) std::rethrow_exception(error);
}

}  // namespace msys::engine
