#include "msys/dsched/alloc_driver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "msys/extract/analysis.hpp"
#include "testing/apps.hpp"
#include "testing/fingerprint.hpp"

namespace msys::dsched {
namespace {

using extract::ScheduleAnalysis;
using testing::RetentionApp;
using testing::TwoClusterApp;

/// A walk's record's extents.
std::span<const Extent> extents_of(const DriverResult& result, const PlacementRecord& p) {
  return std::span<const Extent>(result.extents).subspan(p.extent_begin, p.extent_count);
}

/// Extents of the instance `inst` allocated by `cluster` (first record of
/// its key).
std::span<const Extent> extents_at(const DriverResult& result, ClusterId cluster,
                                   ObjInstance inst) {
  const std::uint64_t key = DataSchedule::key(cluster, inst);
  for (const PlacementRecord& p : result.placements) {
    if (p.key == key) return extents_of(result, p);
  }
  ADD_FAILURE() << "no placement for key " << key;
  return {};
}

TEST(AllocDriver, PlansFeasibleRound) {
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  DriverOptions opt;
  DriverResult result = plan_round(analysis, SizeWords{512}, opt);
  ASSERT_TRUE(result.ok) << result.fail_reason;
  EXPECT_EQ(result.plan.cluster_count(), 2u);
  EXPECT_EQ(result.summary.splits, 0u);
}

TEST(AllocDriver, LoadsCoverClusterInputs) {
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  DriverResult result = plan_round(analysis, SizeWords{512}, DriverOptions{});
  ASSERT_TRUE(result.ok);
  std::vector<DataId> loaded;
  for (ObjInstance inst : result.plan.loads(ClusterId{0})) loaded.push_back(inst.data);
  for (const char* name : {"a", "b", "shared"}) {
    EXPECT_TRUE(std::count(loaded.begin(), loaded.end(), *t.app->find_data(name)))
        << name;
  }
  // The intermediate is never loaded.
  EXPECT_FALSE(std::count(loaded.begin(), loaded.end(), *t.app->find_data("t")));
}

TEST(AllocDriver, StoresCoverOutgoingOnly) {
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  DriverResult result = plan_round(analysis, SizeWords{512}, DriverOptions{});
  ASSERT_TRUE(result.ok);
  const std::span<const StoreEvent> stores = result.plan.stores(ClusterId{0});
  ASSERT_EQ(stores.size(), 1u);
  EXPECT_EQ(stores[0].inst.data, *t.app->find_data("r1"));
  EXPECT_TRUE(stores[0].release_after);
}

TEST(AllocDriver, RfMultipliesInstances) {
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  DriverOptions opt;
  opt.rf = 3;
  DriverResult result = plan_round(analysis, SizeWords{1024}, opt);
  ASSERT_TRUE(result.ok) << result.fail_reason;
  // 3 inputs x 3 iterations.
  EXPECT_EQ(result.plan.loads(ClusterId{0}).size(), 9u);
  EXPECT_EQ(result.plan.stores(ClusterId{0}).size(), 3u);
}

TEST(AllocDriver, FailsCleanlyWhenTooSmall) {
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  DriverResult result = plan_round(analysis, SizeWords{128}, DriverOptions{});
  EXPECT_FALSE(result.ok);
  // Byte-exact: the reason reaches chain summaries and the batch results
  // golden.
  EXPECT_EQ(result.fail_reason, "cluster Cl1 does not fit a 128-word FB set at RF=1");
  // A failed walk carries no plan.
  EXPECT_EQ(result.plan.cluster_count(), 0u);
  EXPECT_TRUE(result.placements.empty());
}

TEST(AllocDriver, FailureReasonNamesClusterSizeAndRf) {
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  DriverOptions opt;
  opt.rf = 3;
  const DriverResult result = plan_round(analysis, SizeWords{300}, opt);
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.fail_reason, "cluster Cl1 does not fit a 300-word FB set at RF=3");
}

TEST(AllocDriver, BasicModeNeedsMoreSpace) {
  // With release_at_last_use=false (Basic), the same workload needs a
  // strictly larger FB than with the §3 replacement policy.
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  DriverOptions ds_mode;
  DriverOptions basic_mode;
  basic_mode.release_at_last_use = false;
  // Cl1 total = a(100)+b(50)+shared(40)+t(60)+r1(70) = 320 for Basic;
  // DS peak is 250 (see extract tests).
  EXPECT_TRUE(plan_round(analysis, SizeWords{320}, basic_mode).ok);
  EXPECT_FALSE(plan_round(analysis, SizeWords{319}, basic_mode).ok);
  EXPECT_TRUE(plan_round(analysis, SizeWords{250}, ds_mode).ok);
  EXPECT_FALSE(plan_round(analysis, SizeWords{249}, ds_mode).ok);
}

TEST(AllocDriver, RetainedObjectLoadedOnceAndReleasedAtSpanEnd) {
  RetentionApp r = RetentionApp::make();
  ScheduleAnalysis analysis(r.sched);
  DriverOptions opt;
  opt.retained = {*r.app->find_data("d"), *r.app->find_data("sr")};
  DriverResult result = plan_round(analysis, SizeWords{512}, opt);
  ASSERT_TRUE(result.ok) << result.fail_reason;
  // d loaded only by Cl1 (its first span cluster).
  auto count_loads = [&](ClusterId c, const char* name) {
    const DataId id = *r.app->find_data(name);
    const std::span<const ObjInstance> loads = result.plan.loads(c);
    return std::count_if(loads.begin(), loads.end(),
                         [&](ObjInstance i) { return i.data == id; });
  };
  EXPECT_EQ(count_loads(ClusterId{0}, "d"), 1);
  EXPECT_EQ(count_loads(ClusterId{2}, "d"), 0);
  EXPECT_EQ(count_loads(ClusterId{2}, "sr"), 0);
  // sr's store disappears (consumed only on its own set, not final).
  const std::span<const StoreEvent> stores = result.plan.stores(ClusterId{0});
  EXPECT_TRUE(std::none_of(stores.begin(), stores.end(), [&](const StoreEvent& s) {
    return s.inst.data == *r.app->find_data("sr");
  }));
  // Span-end releases recorded in Cl3's plan for both retained objects.
  const std::span<const ReleaseEvent> releases = result.plan.releases(ClusterId{2});
  EXPECT_TRUE(std::any_of(releases.begin(), releases.end(), [&](const ReleaseEvent& e) {
    return e.inst.data == *r.app->find_data("d");
  }));
  EXPECT_TRUE(std::any_of(releases.begin(), releases.end(), [&](const ReleaseEvent& e) {
    return e.inst.data == *r.app->find_data("sr");
  }));
}

TEST(AllocDriver, WithoutRetentionSharedDataLoadedTwice) {
  RetentionApp r = RetentionApp::make();
  ScheduleAnalysis analysis(r.sched);
  DriverResult result = plan_round(analysis, SizeWords{512}, DriverOptions{});
  ASSERT_TRUE(result.ok);
  const DataId d = *r.app->find_data("d");
  int loads = 0;
  for (std::uint32_t c = 0; c < result.plan.cluster_count(); ++c) {
    for (ObjInstance inst : result.plan.loads(ClusterId{c})) {
      if (inst.data == d) ++loads;
    }
  }
  EXPECT_EQ(loads, 2);
  // And sr is stored by Cl1 and loaded by Cl3.
  EXPECT_EQ(result.plan.stores(ClusterId{0}).size(), 2u);  // out1 + sr
}

TEST(AllocDriver, PlacementsAreDisjointPerSet) {
  RetentionApp r = RetentionApp::make();
  ScheduleAnalysis analysis(r.sched);
  DriverOptions opt;
  opt.rf = 2;
  DriverResult result = plan_round(analysis, SizeWords{512}, opt);
  ASSERT_TRUE(result.ok);
  ASSERT_FALSE(result.placements.empty());
  for (const PlacementRecord& placement : result.placements) {
    const std::span<const Extent> extents = extents_of(result, placement);
    EXPECT_TRUE(disjoint({extents.begin(), extents.end()}));
    for (const Extent& e : extents) {
      EXPECT_LE(e.end(), 512u);
    }
  }
}

TEST(AllocDriver, RegularityHintsGiveAdjacentIterations) {
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  DriverOptions opt;
  opt.rf = 3;
  DriverResult result = plan_round(analysis, SizeWords{1024}, opt);
  ASSERT_TRUE(result.ok);
  // Consecutive iterations of input `a` in Cl1 occupy adjacent descending
  // addresses (Figure 5's layout).
  const DataId a = *t.app->find_data("a");
  const std::span<const Extent> p0 = extents_at(result, ClusterId{0}, {a, 0});
  const std::span<const Extent> p1 = extents_at(result, ClusterId{0}, {a, 1});
  const std::span<const Extent> p2 = extents_at(result, ClusterId{0}, {a, 2});
  ASSERT_EQ(p0.size(), 1u);
  ASSERT_EQ(p1.size(), 1u);
  ASSERT_EQ(p2.size(), 1u);
  EXPECT_EQ(p1[0].end(), p0[0].begin());
  EXPECT_EQ(p2[0].end(), p1[0].begin());
  EXPECT_GT(result.summary.preferred_hits, 0u);
}

TEST(AllocDriver, RegularityCanBeDisabled) {
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  DriverOptions opt;
  opt.rf = 3;
  opt.regularity_hints = false;
  DriverResult result = plan_round(analysis, SizeWords{1024}, opt);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.summary.preferred_hits, 0u);
  EXPECT_EQ(result.summary.preferred_misses, 0u);
}

TEST(AllocDriver, InputsPlacedTopResultsPlacedBottom) {
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  DriverResult result = plan_round(analysis, SizeWords{512}, DriverOptions{});
  ASSERT_TRUE(result.ok);
  // Inputs go to the top, longest-lived first: b (consumed by the last
  // kernel) sits topmost, then a and shared below it.
  auto first_extent = [&](const char* name) {
    const std::span<const Extent> extents =
        extents_at(result, ClusterId{0}, {*t.app->find_data(name), 0});
    return extents.empty() ? Extent{} : extents.front();
  };
  const Extent a = first_extent("a");
  const Extent b = first_extent("b");
  const Extent final_result = first_extent("r1");
  const Extent t_mid = first_extent("t");
  EXPECT_EQ(b.end(), 512u);  // top first-fit, last consumer first
  EXPECT_EQ(a.end(), b.begin());
  // Results grow from the bottom: the intermediate t first, then r1 right
  // above it (t is still live when r1 is produced).
  EXPECT_EQ(t_mid.begin(), 0u);
  EXPECT_EQ(final_result.begin(), t_mid.end());
  EXPECT_GT(a.begin(), final_result.end());
}

TEST(AllocDriver, ToScheduleMaterializesTheFlatWalk) {
  RetentionApp r = RetentionApp::make();
  ScheduleAnalysis analysis(r.sched);
  DriverOptions opt;
  opt.rf = 2;
  opt.retained = {*r.app->find_data("d"), *r.app->find_data("sr")};
  const DriverResult result = plan_round(analysis, SizeWords{512}, opt);
  ASSERT_TRUE(result.ok) << result.fail_reason;
  const DataSchedule s = to_schedule(DriverResult(result), "CDS", r.sched, opt);
  EXPECT_EQ(s.scheduler_name, "CDS");
  EXPECT_EQ(s.sched, &r.sched);
  EXPECT_TRUE(s.feasible);
  EXPECT_EQ(s.rf, 2u);
  EXPECT_EQ(s.retained, opt.retained);
  EXPECT_EQ(s.alloc_summary.allocations, result.summary.allocations);
  EXPECT_EQ(testing::plan_fingerprint(s), testing::plan_fingerprint(result));
  ASSERT_EQ(s.placements.size(), result.placements.size());
  for (const PlacementRecord& p : result.placements) {
    const auto [cluster, inst] = DataSchedule::unkey(p.key);
    const Placement placed = s.placement(cluster, inst);
    EXPECT_EQ(placed.set, p.set);
    EXPECT_TRUE(std::ranges::equal(placed.extents, extents_at(result, cluster, inst)));
  }
  // Only a successful walk becomes a schedule.
  DriverResult failed = plan_round(analysis, SizeWords{16}, opt);
  ASSERT_FALSE(failed.ok);
  EXPECT_THROW((void)to_schedule(std::move(failed), "CDS", r.sched, opt), Error);
}

}  // namespace
}  // namespace msys::dsched
