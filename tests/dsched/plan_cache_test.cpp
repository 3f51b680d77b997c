// PlanCache: memo hits only on exactly-equal option keys, retained-set
// order independence, and hit results identical to fresh walks.
#include "msys/dsched/plan_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "msys/dsched/alloc_driver.hpp"
#include "msys/extract/analysis.hpp"
#include "testing/apps.hpp"
#include "testing/fingerprint.hpp"

namespace msys::dsched {
namespace {

using testing::RetentionApp;
using testing::test_cfg;

TEST(PlanCache, RepeatedOptionsHitWithoutRecompute) {
  RetentionApp made = RetentionApp::make(/*iterations=*/6);
  const extract::ScheduleAnalysis analysis(made.sched);
  PlanCache plans(analysis, test_cfg(4096).fb_set_size);

  DriverOptions options;
  options.rf = 2;
  const DriverResult& first = plans.plan(options);
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(plans.stats().hits, 0u);
  EXPECT_EQ(plans.stats().misses, 1u);

  // Same options again: same stored object, no new walk.
  const DriverResult& again = plans.plan(options);
  EXPECT_EQ(&again, &first);
  EXPECT_EQ(plans.stats().hits, 1u);
  EXPECT_EQ(plans.stats().misses, 1u);
}

TEST(PlanCache, DistinctRfAndFlagsAndRetainedMiss) {
  RetentionApp made = RetentionApp::make(/*iterations=*/6);
  const extract::ScheduleAnalysis analysis(made.sched);
  PlanCache plans(analysis, test_cfg(4096).fb_set_size);

  DriverOptions options;
  options.rf = 1;
  (void)plans.plan(options);
  options.rf = 2;
  (void)plans.plan(options);  // rf differs
  options.release_at_last_use = false;
  (void)plans.plan(options);  // flags differ
  options.release_at_last_use = true;
  const std::vector<extract::RetentionCandidate> cands = analysis.retention_candidates();
  ASSERT_FALSE(cands.empty());
  options.retained.insert(cands.front().data);
  (void)plans.plan(options);  // retained set differs
  EXPECT_EQ(plans.stats().hits, 0u);
  EXPECT_EQ(plans.stats().misses, 4u);
}

TEST(PlanCache, RetainedSetKeyIsOrderIndependent) {
  RetentionApp made = RetentionApp::make(/*iterations=*/6);
  const extract::ScheduleAnalysis analysis(made.sched);
  PlanCache plans(analysis, test_cfg(8192).fb_set_size);

  const std::vector<extract::RetentionCandidate> cands = analysis.retention_candidates();
  ASSERT_GE(cands.size(), 2u);
  DriverOptions forward;
  forward.retained.insert(cands[0].data);
  forward.retained.insert(cands[1].data);
  DriverOptions backward;
  backward.retained.insert(cands[1].data);
  backward.retained.insert(cands[0].data);

  const DriverResult& first = plans.plan(forward);
  const DriverResult& second = plans.plan(backward);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(plans.stats().hits, 1u);
  EXPECT_EQ(plans.stats().misses, 1u);
}

/// Option sets for the memo-vs-fresh comparisons: a plain walk, and one
/// retaining every candidate, whose span-end releases are keyed under an
/// earlier cluster than the one releasing them.
std::vector<DriverOptions> comparison_options(const extract::ScheduleAnalysis& analysis) {
  DriverOptions plain;
  plain.rf = 3;
  DriverOptions retaining = plain;
  for (const extract::RetentionCandidate& c : analysis.retention_candidates()) {
    retaining.retained.insert(c.data);
  }
  return {plain, retaining};
}

TEST(PlanCache, HitIsByteEquivalentToFreshWalk) {
  RetentionApp made = RetentionApp::make(/*iterations=*/6);
  const extract::ScheduleAnalysis analysis(made.sched);
  const arch::M1Config cfg = test_cfg(4096);
  PlanCache plans(analysis, cfg.fb_set_size);

  bool saw_cross_cluster_release = false;
  for (const DriverOptions& options : comparison_options(analysis)) {
    (void)plans.plan(options);  // prime
    const DriverResult& hit = plans.plan(options);
    const DriverResult fresh = plan_round(analysis, cfg.fb_set_size, options);
    ASSERT_TRUE(hit.ok);
    ASSERT_TRUE(fresh.ok);
    const DataSchedule from_hit = to_schedule(hit, "CDS", made.sched, options);
    const DataSchedule from_fresh = to_schedule(fresh, "CDS", made.sched, options);
    ASSERT_EQ(from_hit.round_plan.size(), from_fresh.round_plan.size());
    for (std::size_t i = 0; i < from_hit.round_plan.size(); ++i) {
      const ClusterRoundPlan& a = from_hit.round_plan[i];
      const ClusterRoundPlan& b = from_fresh.round_plan[i];
      EXPECT_EQ(a.cluster, b.cluster);
      EXPECT_EQ(a.loads, b.loads) << "cluster " << i;
      ASSERT_EQ(a.stores.size(), b.stores.size()) << "cluster " << i;
      for (std::size_t k = 0; k < a.stores.size(); ++k) {
        EXPECT_EQ(a.stores[k].inst, b.stores[k].inst);
        EXPECT_EQ(a.stores[k].release_after, b.stores[k].release_after);
      }
      ASSERT_EQ(a.releases.size(), b.releases.size()) << "cluster " << i;
      for (std::size_t k = 0; k < a.releases.size(); ++k) {
        EXPECT_EQ(a.releases[k].trigger_kernel, b.releases[k].trigger_kernel);
        EXPECT_EQ(a.releases[k].trigger_iter, b.releases[k].trigger_iter);
        EXPECT_EQ(a.releases[k].inst, b.releases[k].inst);
        EXPECT_EQ(a.releases[k].placement_cluster, b.releases[k].placement_cluster);
        saw_cross_cluster_release |= a.releases[k].placement_cluster != a.cluster;
      }
    }
    ASSERT_EQ(from_hit.placements.size(), from_fresh.placements.size());
    for (const auto& [key, placement] : from_fresh.placements) {
      const auto it = from_hit.placements.find(key);
      ASSERT_NE(it, from_hit.placements.end());
      EXPECT_EQ(it->second.set, placement.set);
      EXPECT_EQ(it->second.extents, placement.extents);
    }
  }
  EXPECT_TRUE(saw_cross_cluster_release);
}

TEST(PlanCache, HitFlatArraysMatchFreshWalk) {
  RetentionApp made = RetentionApp::make(/*iterations=*/6);
  const extract::ScheduleAnalysis analysis(made.sched);
  const arch::M1Config cfg = test_cfg(4096);
  PlanCache plans(analysis, cfg.fb_set_size);

  for (const DriverOptions& options : comparison_options(analysis)) {
    (void)plans.plan(options);  // prime
    const DriverResult& hit = plans.plan(options);
    const DriverResult fresh = plan_round(analysis, cfg.fb_set_size, options);
    ASSERT_TRUE(hit.ok);
    ASSERT_TRUE(fresh.ok);
    ASSERT_EQ(hit.cluster_count(), fresh.cluster_count());
    for (std::uint32_t c = 0; c < hit.cluster_count(); ++c) {
      const ClusterId id{c};
      EXPECT_TRUE(std::ranges::equal(hit.loads(id), fresh.loads(id))) << "cluster " << c;
      EXPECT_TRUE(std::ranges::equal(hit.stores(id), fresh.stores(id))) << "cluster " << c;
      EXPECT_TRUE(std::ranges::equal(hit.releases(id), fresh.releases(id)))
          << "cluster " << c;
    }
    const std::span<const PlacementRecord> a = hit.placements();
    const std::span<const PlacementRecord> b = fresh.placements();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].key, b[i].key);
      EXPECT_EQ(a[i].set, b[i].set);
      EXPECT_TRUE(std::ranges::equal(hit.extents(a[i]), fresh.extents(b[i])))
          << "placement " << a[i].key;
    }
    EXPECT_EQ(hit.summary.allocations, fresh.summary.allocations);
    EXPECT_EQ(hit.summary.splits, fresh.summary.splits);
    EXPECT_EQ(hit.summary.preferred_hits, fresh.summary.preferred_hits);
    EXPECT_EQ(hit.summary.preferred_misses, fresh.summary.preferred_misses);
    EXPECT_EQ(hit.summary.peak_used_words[0], fresh.summary.peak_used_words[0]);
    EXPECT_EQ(hit.summary.peak_used_words[1], fresh.summary.peak_used_words[1]);
  }
}

TEST(PlanCache, CapacityBoundsMemoAndCountsEvictions) {
  RetentionApp made = RetentionApp::make(/*iterations=*/8);
  const extract::ScheduleAnalysis analysis(made.sched);
  PlanCache plans(analysis, test_cfg(4096).fb_set_size, /*capacity=*/2);
  EXPECT_EQ(plans.capacity(), 2u);

  DriverOptions options;
  options.rf = 1;
  (void)plans.plan(options);
  options.rf = 2;
  (void)plans.plan(options);
  EXPECT_EQ(plans.stats().evictions, 0u);

  // Third distinct key: over capacity — computed but not memoized.
  options.rf = 4;
  const DriverResult& overflow = plans.plan(options);
  ASSERT_TRUE(overflow.ok);
  EXPECT_EQ(plans.stats().evictions, 1u);
  EXPECT_EQ(plans.stats().misses, 3u);

  // The overflow result is correct (same as a fresh walk) even though it
  // was never stored...
  const DriverResult fresh = plan_round(analysis, test_cfg(4096).fb_set_size, options);
  EXPECT_EQ(testing::plan_fingerprint(overflow), testing::plan_fingerprint(fresh));

  // ...and re-requesting it misses again (counts another eviction), while
  // the keys admitted under capacity still hit.
  (void)plans.plan(options);
  EXPECT_EQ(plans.stats().evictions, 2u);
  options.rf = 1;
  (void)plans.plan(options);
  EXPECT_EQ(plans.stats().hits, 1u);
}

TEST(PlanCache, DefaultCapacityAdmitsTypicalScan) {
  RetentionApp made = RetentionApp::make(/*iterations=*/6);
  const extract::ScheduleAnalysis analysis(made.sched);
  PlanCache plans(analysis, test_cfg(4096).fb_set_size);
  EXPECT_EQ(plans.capacity(), PlanCache::kDefaultCapacity);

  DriverOptions options;
  for (std::uint32_t rf : {1u, 2u, 3u, 4u, 5u, 6u}) {
    options.rf = rf;
    (void)plans.plan(options);
  }
  EXPECT_EQ(plans.stats().evictions, 0u);
}

}  // namespace
}  // namespace msys::dsched
