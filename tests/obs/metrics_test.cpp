// MetricsRegistry: handle stability, snapshot/diff accounting, and the
// concurrency contract (relaxed atomics, no lost updates).
#include "msys/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace msys::obs {
namespace {

TEST(Metrics, CounterHandleIsStableAndShared) {
  Counter& a = counter("test.metrics.stable");
  Counter& b = counter("test.metrics.stable");
  EXPECT_EQ(&a, &b);
  const std::uint64_t before = a.value();
  b.add(3);
  EXPECT_EQ(a.value(), before + 3);
}

TEST(Metrics, EveryByNameLookupIsCounted) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.lookups(), 0u);
  Counter& c = registry.counter("test.lookups.counter");
  (void)registry.counter("test.lookups.counter");  // existing name: still a lookup
  (void)registry.gauge("test.lookups.gauge");
  EXPECT_EQ(registry.lookups(), 3u);
  c.add();  // using a cached handle is not a lookup
  (void)registry.snapshot();
  EXPECT_EQ(registry.lookups(), 3u);
}

TEST(Metrics, GaugeSetAddAndPeak) {
  Gauge& g = gauge("test.metrics.gauge");
  g.set(10);
  EXPECT_EQ(g.value(), 10);
  g.add(-4);
  EXPECT_EQ(g.value(), 6);
  g.update_max(3);  // below current: no change
  EXPECT_EQ(g.value(), 6);
  g.update_max(9);
  EXPECT_EQ(g.value(), 9);
}

TEST(Metrics, SnapshotDiffIsolatesAPhase) {
  Counter& c = counter("test.metrics.phase");
  c.add(5);  // pre-existing traffic must not leak into the delta
  const MetricsSnapshot before = snapshot();
  c.add(7);
  const MetricsSnapshot delta = snapshot().since(before);
  EXPECT_EQ(delta.counter("test.metrics.phase"), 7u);
}

TEST(Metrics, SnapshotTreatsAbsentNamesAsZero) {
  const MetricsSnapshot snap = snapshot();
  EXPECT_EQ(snap.counter("test.metrics.never_registered"), 0u);
  EXPECT_EQ(snap.gauge("test.metrics.never_registered"), 0);
}

TEST(Metrics, DiffDropsZeroDeltasButKeepsGaugeLevels) {
  Counter& idle = counter("test.metrics.idle");
  (void)idle;
  Gauge& level = gauge("test.metrics.level");
  level.set(42);
  const MetricsSnapshot before = snapshot();
  const MetricsSnapshot delta = snapshot().since(before);
  // A counter that did not move between the snapshots is omitted from the
  // delta; a gauge is a level, so it carries through as-is.
  EXPECT_EQ(delta.counters.count("test.metrics.idle"), 0u);
  EXPECT_EQ(delta.gauge("test.metrics.level"), 42);
}

TEST(Metrics, ConcurrentAddsAreNotLost) {
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  Counter& c = counter("test.metrics.hammer");
  const std::uint64_t before = c.value();
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&c] {
        for (int i = 0; i < kAddsPerThread; ++i) c.add();
      });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_EQ(c.value(), before + kThreads * kAddsPerThread);
}

TEST(Metrics, ConcurrentRegistrationIsSafeAndConverges) {
  // Many threads racing to register the same and different names: every
  // thread must end up with the same handle per name.
  constexpr int kThreads = 8;
  std::vector<Counter*> first(kThreads, nullptr);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([t, &first] {
        first[static_cast<std::size_t>(t)] = &counter("test.metrics.race");
        (void)counter("test.metrics.race." + std::to_string(t));
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(first[0], first[static_cast<std::size_t>(t)]);
}

}  // namespace
}  // namespace msys::obs
