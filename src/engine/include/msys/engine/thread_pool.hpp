// Fixed-size worker pool with an MPMC job queue — the execution substrate
// of the batch engine.
//
// Design points (deliberately boring, in the best way):
//   * submit() may be called from any thread, including from inside a
//     running job (workers never block on the queue lock while executing).
//   * The destructor drains every *accepted* job, then joins; nothing
//     accepted is silently dropped.  Once shutdown has begun, submit()
//     rejects new work by returning false instead of throwing: a job that
//     re-submits while the destructor drains gets a well-defined refusal,
//     not an exception inside a worker (which would std::terminate).
//     Accept-and-drain was rejected deliberately — a self-perpetuating job
//     chain would then block shutdown forever.
//   * Jobs must not throw — the pool has no channel to report an
//     exception, so a throwing job terminates.  parallel_for below catches
//     for its bodies and rethrows on the calling thread.
//
// Determinism contract: neither the pool nor parallel_for makes ordering
// promises — every fan-out (BatchRunner, the annealer's islands, the fuzz
// campaign) goes through parallel_for, writes its results by index and
// folds them serially afterwards.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace msys::engine {

class ThreadPool {
 public:
  /// Spawns `n_threads` workers (clamped to >= 1).
  explicit ThreadPool(unsigned n_threads);

  /// Drains the queue, then stops and joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one job and returns true.  After shutdown began (the
  /// destructor is draining), the job is NOT enqueued and submit returns
  /// false — never throws, so re-entrant submits from draining workers are
  /// safe.  Callers that require acceptance (a live pool they own) may
  /// assert on the result.  (Not [[nodiscard]]: fire-and-forget on a pool
  /// the caller owns and keeps alive is sound — acceptance is guaranteed
  /// before ~ThreadPool starts.)
  bool submit(std::function<void()> job);

  [[nodiscard]] unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Best-effort hardware thread count (>= 1 even when unknown).
  [[nodiscard]] static unsigned hardware_threads();

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait here for jobs
  std::deque<std::function<void()>> queue_;
  bool stopping_{false};
  std::vector<std::thread> workers_;
};

/// Runs body(i) for every i in [0, n) and returns once all have finished.
/// With a null pool the calling thread runs them in index order.  Otherwise
/// at most min(n, pool->size()) tasks each claim the next index from a
/// shared counter; if the pool refuses a submit (its destructor is
/// draining), the caller runs the same claim loop itself.  It waits for its
/// own tasks only, so concurrent calls may share a pool.
/// A throwing body does not stop the other indices; once all finished, the
/// exception of the lowest throwing index is rethrown.
void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace msys::engine
