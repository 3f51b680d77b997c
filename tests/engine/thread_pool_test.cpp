#include "msys/engine/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "msys/common/error.hpp"

namespace msys::engine {
namespace {

TEST(ThreadPool, RunsEverySubmittedJob) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 1000; ++i) {
      EXPECT_TRUE(pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); }));
    }
  }  // the destructor drains every accepted job
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 500; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    // The destructor must finish the queue, not drop it.
  }
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, ClampsToAtLeastOneWorker) {
  std::atomic<bool> ran{false};
  {
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    pool.submit([&ran] { ran = true; });
  }
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, SubmitFromInsideAJob) {
  std::atomic<int> count{0};
  std::atomic<int> accepted{0};
  std::atomic<bool> submitted{false};
  {
    ThreadPool pool(2);
    pool.submit([&pool, &count, &accepted, &submitted] {
      count.fetch_add(1, std::memory_order_relaxed);
      for (int i = 0; i < 10; ++i) {
        if (pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); })) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
      submitted.store(true);
    });
    // Keep the pool live until the outer job has submitted, so its submits
    // are accepted rather than refused by the draining destructor.
    while (!submitted.load()) std::this_thread::yield();
  }
  EXPECT_EQ(accepted.load(), 10);
  EXPECT_EQ(count.load(), 11);
}

TEST(ThreadPool, UsesMultipleWorkerThreads) {
  std::mutex mu;
  std::set<std::thread::id> seen;
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    parallel_for(&pool, 200, [&](std::size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mu);
      seen.insert(std::this_thread::get_id());
    });
  }
  EXPECT_EQ(ran.load(), 200);
  // At least one worker ran (single-core schedulers may well serve
  // everything from one thread, so only the lower bound is portable).
  EXPECT_GE(seen.size(), 1u);
  EXPECT_LE(seen.size(), 4u);
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

TEST(ThreadPool, SubmitReturnsTrueOnALivePool) {
  ThreadPool pool(2);
  EXPECT_TRUE(pool.submit([] {}));
}

// Regression: a job that re-submits while the destructor drains used to
// trip MSYS_REQUIRE(!stopping_) inside a worker — an exception with no
// handler on that stack, i.e. std::terminate.  The contract is now a
// well-defined refusal: submit() returns false and the worker carries on.
TEST(ThreadPool, ResubmitDuringShutdownIsRefusedNotTerminate) {
  std::atomic<int> executed{0};
  std::atomic<int> refused{0};
  // Declared before the pool so the chain's state outlives the drain.
  auto chain = std::make_shared<std::function<void()>>();
  {
    ThreadPool pool(2);
    std::weak_ptr<std::function<void()>> weak = chain;  // break the self-cycle
    *chain = [&pool, &executed, &refused, weak] {
      executed.fetch_add(1, std::memory_order_relaxed);
      if (const auto self = weak.lock()) {
        if (!pool.submit(*self)) refused.fetch_add(1, std::memory_order_relaxed);
      }
    };
    ASSERT_TRUE(pool.submit(*chain));
    // Let the chain establish itself, then destroy the pool mid-flight.
    while (executed.load(std::memory_order_relaxed) < 3) std::this_thread::yield();
  }
  // The chain ran at least until we saw it, and ended with exactly one
  // refusal (a single self-perpetuating chain dies on its first rejection).
  EXPECT_GE(executed.load(), 3);
  EXPECT_EQ(refused.load(), 1);
}

TEST(ParallelFor, NullPoolRunsInlineInIndexOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for(nullptr, 5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  for (const std::size_t n : {std::size_t{0}, std::size_t{3}, std::size_t{5000}}) {
    std::vector<std::atomic<int>> runs(n);
    parallel_for(&pool, n,
                 [&](std::size_t i) { runs[i].fetch_add(1, std::memory_order_relaxed); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(runs[i].load(), 1) << "n=" << n << " i=" << i;
  }
}

// BatchRunner's sharing contract: concurrent calls on one pool each wait
// for their own indices only.  The first caller's index blocks a worker
// until released; the second call must still return, having run all of
// its own indices on the remaining workers.
TEST(ParallelFor, ConcurrentCallersOnASharedPoolWaitOnlyForTheirOwn) {
  ThreadPool pool(4);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<bool> first_returned{false};
  bool first_ran = false;
  std::thread first([&] {
    parallel_for(&pool, 1, [&](std::size_t) {
      started.store(true);
      while (!release.load()) std::this_thread::yield();
      first_ran = true;
    });
    EXPECT_TRUE(first_ran);
    first_returned.store(true);
  });
  while (!started.load()) std::this_thread::yield();

  std::atomic<int> second_runs{0};
  parallel_for(&pool, 200, [&](std::size_t) { second_runs.fetch_add(1); });
  EXPECT_EQ(second_runs.load(), 200);
  EXPECT_FALSE(first_returned.load());

  release.store(true);
  first.join();
  EXPECT_TRUE(first_returned.load());
}

TEST(ParallelFor, ThrowingIndicesLetTheRestRunAndTheLowestIsRethrown) {
  ThreadPool pool(4);
  for (ThreadPool* p : {&pool, static_cast<ThreadPool*>(nullptr)}) {
    std::vector<std::atomic<int>> runs(64);
    try {
      parallel_for(p, runs.size(), [&](std::size_t i) {
        runs[i].fetch_add(1, std::memory_order_relaxed);
        if (i == 7 || i == 3) throw std::runtime_error("index " + std::to_string(i));
      });
      ADD_FAILURE() << "nothing was rethrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 3");
    }
    for (std::size_t i = 0; i < runs.size(); ++i) EXPECT_EQ(runs[i].load(), 1) << i;
  }
}

// The ResubmitDuringShutdownIsRefusedNotTerminate pattern: once the chain's
// resubmit is refused, the pool's destructor is draining and every submit
// parallel_for makes is refused too, so the calling job runs every index.
TEST(ParallelFor, CallFromAJobWhileThePoolDrainsRunsOnTheCaller) {
  constexpr std::size_t kN = 16;
  std::atomic<int> executed{0};
  std::atomic<int> refused{0};
  std::vector<std::atomic<int>> on_caller(kN);
  std::atomic<int> elsewhere{0};
  auto chain = std::make_shared<std::function<void()>>();
  {
    ThreadPool pool(2);
    std::weak_ptr<std::function<void()>> weak = chain;  // break the self-cycle
    *chain = [&, weak] {
      executed.fetch_add(1, std::memory_order_relaxed);
      const auto self = weak.lock();
      if (self == nullptr || pool.submit(*self)) return;
      refused.fetch_add(1, std::memory_order_relaxed);
      const std::thread::id caller = std::this_thread::get_id();
      parallel_for(&pool, kN, [&](std::size_t i) {
        if (std::this_thread::get_id() == caller) {
          on_caller[i].fetch_add(1, std::memory_order_relaxed);
        } else {
          elsewhere.fetch_add(1, std::memory_order_relaxed);
        }
      });
    };
    ASSERT_TRUE(pool.submit(*chain));
    while (executed.load(std::memory_order_relaxed) < 3) std::this_thread::yield();
  }
  EXPECT_EQ(refused.load(), 1);
  EXPECT_EQ(elsewhere.load(), 0);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(on_caller[i].load(), 1) << i;
}

}  // namespace
}  // namespace msys::engine
