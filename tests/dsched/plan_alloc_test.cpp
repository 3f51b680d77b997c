// Heap allocations of a warm Figure-4 walk.
//
// plan_round writes its output into reusable PlanScratch storage and
// copies a successful walk into one exactly-sized array per field, so a
// walk over warm scratch allocates a small constant number of blocks —
// those arrays plus the two FB allocators' free lists — however many
// object instances it places.  A walk that builds a schedule per call (a
// map node and an extent vector per instance, growing per-cluster
// vectors) allocates in proportion to the instances instead.  This test
// pins the constant.  The decision walk (decide_round) has no allocators
// and copies three arrays, so it allocates at most three blocks.  Building
// the analysis the walks read likewise takes a constant number of blocks,
// and the schedule a walk becomes takes the walk's arrays as they are.
//
// It replaces the global operator new to count, so it is a test binary of
// its own; sanitizer builds that own the allocator leave it out.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <utility>

#include "msys/dsched/alloc_driver.hpp"
#include "msys/dsched/schedulers.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/workloads/experiments.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// Out of line, so the compiler never pairs the free() with a visible new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t /*size*/) noexcept {
  std::free(p);
}

namespace msys::dsched {
namespace {

/// Most heap blocks one warm walk may allocate: the six flat result
/// arrays, and the free lists of the two FB allocators (one block each,
/// plus a few doublings while fragmented).  Table 1's walks take 10-14;
/// walks that build a schedule per call take 74-482 on the same rows.
constexpr std::uint64_t kWarmWalkAllocationBound = 14;

TEST(PlanAllocations, WarmWalkAllocatesAConstant) {
  std::uint64_t worst = 0;
  std::string worst_row;
  for (const std::string& name : workloads::table1_experiment_names()) {
    const workloads::Experiment exp = workloads::make_experiment(name);
    const extract::ScheduleAnalysis analysis(exp.sched, exp.cfg.cross_set_reads);
    const DataSchedule chosen = CompleteDataScheduler{}.schedule(analysis, exp.cfg);
    ASSERT_TRUE(chosen.feasible) << name;
    DriverOptions options;
    options.rf = chosen.rf;
    options.retained = chosen.retained;

    PlanScratch scratch;
    {
      const DriverResult warm = plan_round(analysis, exp.cfg.fb_set_size, options, scratch);
      ASSERT_TRUE(warm.ok) << name;
    }
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    const DriverResult again = plan_round(analysis, exp.cfg.fb_set_size, options, scratch);
    g_counting.store(false, std::memory_order_relaxed);
    const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed);

    ASSERT_TRUE(again.ok) << name;
    EXPECT_LE(allocations, kWarmWalkAllocationBound)
        << name << " at RF=" << options.rf << " placing " << again.placements.size()
        << " instances";
    if (allocations > worst) {
      worst = allocations;
      worst_row = name;
    }
  }
  std::cout << "worst warm walk: " << worst << " allocations (" << worst_row << ")\n";
}

TEST(PlanAllocations, WarmDecisionWalkAllocatesOnlyItsResult) {
  for (const std::string& name : workloads::table1_experiment_names()) {
    const workloads::Experiment exp = workloads::make_experiment(name);
    const extract::ScheduleAnalysis analysis(exp.sched, exp.cfg.cross_set_reads);
    const DataSchedule chosen = CompleteDataScheduler{}.schedule(analysis, exp.cfg);
    ASSERT_TRUE(chosen.feasible) << name;
    DriverOptions options;
    options.rf = chosen.rf;
    options.retained = chosen.retained;

    PlanScratch scratch;
    ASSERT_TRUE(decide_round(analysis, exp.cfg.fb_set_size, options, scratch).ok) << name;
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    const RoundDecision again = decide_round(analysis, exp.cfg.fb_set_size, options, scratch);
    g_counting.store(false, std::memory_order_relaxed);
    ASSERT_TRUE(again.ok) << name;
    // Cluster ends, loads and stores.
    EXPECT_LE(g_allocations.load(std::memory_order_relaxed), 3u) << name;
  }
}

/// Most heap blocks building a schedule from a walk may take.  The walk's
/// round plan, placement records and extent array move in as they are
/// (the records sorted in place), and a retained set of up to 256 objects
/// is inline, so Table 1 takes 0 whatever its cluster count.  Copying the
/// plan into three vectors per cluster took 12-21 (E2, six clusters); when
/// every placement was a map node plus an extent vector it took 57-410
/// (E3's 198 placements).
constexpr std::uint64_t kToScheduleAllocationBound = 0;

/// Most heap blocks one ScheduleAnalysis may allocate: its object,
/// dataflow, candidate and candidate-index tables and the five shared
/// arrays every per-object and per-cluster list is a range of.  Table 1
/// takes 9; with a vector per list and per-object temporaries it took 44-96
/// (E1 96).
constexpr std::uint64_t kAnalysisAllocationBound = 9;

TEST(PlanAllocations, ScheduleAndAnalysisAllocateAConstant) {
  for (const std::string& name : workloads::table1_experiment_names()) {
    const workloads::Experiment exp = workloads::make_experiment(name);
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    const extract::ScheduleAnalysis analysis(exp.sched, exp.cfg.cross_set_reads);
    g_counting.store(false, std::memory_order_relaxed);
    EXPECT_LE(g_allocations.load(std::memory_order_relaxed), kAnalysisAllocationBound) << name;

    const DataSchedule chosen = CompleteDataScheduler{}.schedule(analysis, exp.cfg);
    ASSERT_TRUE(chosen.feasible) << name;
    DriverOptions options;
    options.rf = chosen.rf;
    options.retained = chosen.retained;
    DriverResult walk = plan_round(analysis, exp.cfg.fb_set_size, options);
    ASSERT_TRUE(walk.ok) << name;
    const std::size_t placed = walk.placements.size();
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    const DataSchedule schedule = to_schedule(std::move(walk), "CDS", exp.sched, options);
    g_counting.store(false, std::memory_order_relaxed);
    EXPECT_LE(g_allocations.load(std::memory_order_relaxed), kToScheduleAllocationBound)
        << name << " placing " << placed << " instances";
    EXPECT_EQ(schedule.placements.size(), placed) << name;
  }
}

}  // namespace
}  // namespace msys::dsched
