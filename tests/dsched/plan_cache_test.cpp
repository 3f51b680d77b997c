// PlanCache: memo hits only on exactly-equal decision keys, retained-set
// order independence, placement-only options sharing one entry, hit
// decisions identical to fresh decision walks, memoized prices equal to
// predict_cost, and schedules identical to fresh placement walks.
#include "msys/dsched/plan_cache.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "msys/csched/context_plan.hpp"
#include "msys/dsched/alloc_driver.hpp"
#include "msys/dsched/cost.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/obs/metrics.hpp"
#include "testing/apps.hpp"
#include "testing/fingerprint.hpp"

namespace msys::dsched {
namespace {

using testing::RetentionApp;
using testing::test_cfg;

TEST(PlanCache, RepeatedOptionsHitWithoutRecompute) {
  RetentionApp made = RetentionApp::make(/*iterations=*/6);
  const extract::ScheduleAnalysis analysis(made.sched);
  PlanCache plans(analysis, test_cfg(4096));

  DriverOptions options;
  options.rf = 2;
  const RoundDecision& first = plans.decide(options);
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(plans.stats().hits, 0u);
  EXPECT_EQ(plans.stats().misses, 1u);

  // Same options again: same stored object, no new walk.
  const RoundDecision& again = plans.decide(options);
  EXPECT_EQ(&again, &first);
  EXPECT_EQ(plans.stats().hits, 1u);
  EXPECT_EQ(plans.stats().misses, 1u);
}

TEST(PlanCache, DistinctRfAndFlagsAndRetainedMiss) {
  RetentionApp made = RetentionApp::make(/*iterations=*/6);
  const extract::ScheduleAnalysis analysis(made.sched);
  PlanCache plans(analysis, test_cfg(4096));

  DriverOptions options;
  options.rf = 1;
  (void)plans.decide(options);
  options.rf = 2;
  (void)plans.decide(options);  // rf differs
  options.release_at_last_use = false;
  (void)plans.decide(options);  // release policy differs
  options.release_at_last_use = true;
  const std::vector<extract::RetentionCandidate> cands = analysis.retention_candidates();
  ASSERT_FALSE(cands.empty());
  options.retained.insert(cands.front().data);
  (void)plans.decide(options);  // retained set differs
  EXPECT_EQ(plans.stats().hits, 0u);
  EXPECT_EQ(plans.stats().misses, 4u);
}

TEST(PlanCache, PlacementOnlyOptionsShareTheDecision) {
  // The fit policy and the regularity hints steer only where instances go,
  // so they are not part of the key.
  RetentionApp made = RetentionApp::make(/*iterations=*/6);
  const extract::ScheduleAnalysis analysis(made.sched);
  PlanCache plans(analysis, test_cfg(4096));

  DriverOptions ds;
  const RoundDecision& first = plans.decide(ds);
  DriverOptions no_hints = ds;
  no_hints.regularity_hints = false;
  EXPECT_EQ(&plans.decide(no_hints), &first);
  EXPECT_EQ(plans.stats().hits, 1u);
  EXPECT_EQ(plans.stats().misses, 1u);
}

TEST(PlanCache, RetainedSetKeyIsOrderIndependent) {
  RetentionApp made = RetentionApp::make(/*iterations=*/6);
  const extract::ScheduleAnalysis analysis(made.sched);
  PlanCache plans(analysis, test_cfg(8192));

  const std::vector<extract::RetentionCandidate> cands = analysis.retention_candidates();
  ASSERT_GE(cands.size(), 2u);
  DriverOptions forward;
  forward.retained.insert(cands[0].data);
  forward.retained.insert(cands[1].data);
  DriverOptions backward;
  backward.retained.insert(cands[1].data);
  backward.retained.insert(cands[0].data);

  const RoundDecision& first = plans.decide(forward);
  const RoundDecision& second = plans.decide(backward);
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
  // A hit is a fresh decision walk, and the schedule the cache builds is
  // the one a fresh placement walk at the same options packs, byte for
  // byte.
  RetentionApp made = RetentionApp::make(/*iterations=*/6);
  const extract::ScheduleAnalysis analysis(made.sched);
  const arch::M1Config cfg = test_cfg(4096);
  PlanCache plans(analysis, cfg);

  bool saw_cross_cluster_release = false;
  PlanScratch scratch;
  for (const DriverOptions& options : comparison_options(analysis)) {
    (void)plans.decide(options);  // prime
    const RoundDecision& hit = plans.decide(options);
    ASSERT_TRUE(hit.ok);
    EXPECT_EQ(testing::decision_fingerprint(hit),
              testing::decision_fingerprint(
                  decide_round(analysis, cfg.fb_set_size, options, scratch)));

    const DataSchedule from_cache = plans.schedule(options, "CDS");
    const DataSchedule from_fresh =
        to_schedule(plan_round(analysis, cfg.fb_set_size, options), "CDS", made.sched, options);
    EXPECT_EQ(testing::plan_fingerprint(from_cache), testing::plan_fingerprint(from_fresh));
    for (std::uint32_t c = 0; c < from_cache.round_plan.cluster_count(); ++c) {
      for (const ReleaseEvent& release : from_cache.round_plan.releases(ClusterId{c})) {
        saw_cross_cluster_release |= release.placement_cluster != ClusterId{c};
      }
    }
  }
  EXPECT_TRUE(saw_cross_cluster_release);
}

TEST(PlanCache, HitFlatArraysMatchFreshWalk) {
  // A hit's flat load and store arrays are the ones a fresh placement walk
  // emits, and the cache's schedule carries that walk's allocator summary.
  RetentionApp made = RetentionApp::make(/*iterations=*/6);
  const extract::ScheduleAnalysis analysis(made.sched);
  const arch::M1Config cfg = test_cfg(4096);
  PlanCache plans(analysis, cfg);

  for (const DriverOptions& options : comparison_options(analysis)) {
    (void)plans.decide(options);  // prime
    const RoundDecision& hit = plans.decide(options);
    const DriverResult fresh = plan_round(analysis, cfg.fb_set_size, options);
    ASSERT_TRUE(hit.ok);
    ASSERT_TRUE(fresh.ok);
    EXPECT_EQ(testing::decision_fingerprint(hit), testing::decision_fingerprint(fresh));
    const AllocSummary summary = plans.schedule(options, "CDS").alloc_summary;
    EXPECT_EQ(summary.allocations, fresh.summary.allocations);
    EXPECT_EQ(summary.splits, fresh.summary.splits);
    EXPECT_EQ(summary.preferred_hits, fresh.summary.preferred_hits);
    EXPECT_EQ(summary.preferred_misses, fresh.summary.preferred_misses);
    EXPECT_EQ(summary.peak_used_words[0], fresh.summary.peak_used_words[0]);
    EXPECT_EQ(summary.peak_used_words[1], fresh.summary.peak_used_words[1]);
  }
}

TEST(PlanCache, PriceIsPredictCostOfTheDecision) {
  RetentionApp made = RetentionApp::make(/*iterations=*/6);
  const extract::ScheduleAnalysis analysis(made.sched);
  const arch::M1Config cfg = test_cfg(4096);
  const csched::ContextPlan ctx_plan =
      csched::ContextPlan::build(made.sched, cfg.cm_capacity_words);
  PlanCache plans(analysis, cfg);

  for (const DriverOptions& options : comparison_options(analysis)) {
    const std::optional<Cycles> priced = plans.price(options);
    ASSERT_TRUE(priced.has_value());
    EXPECT_EQ(*priced,
              predict_cost(made.sched, options.rf, plans.decide(options).plan, cfg, ctx_plan).total);
    EXPECT_EQ(plans.price(options), priced);  // the memo answers the second time
  }
  // A walk that does not fit has no price.
  PlanCache tight(analysis, test_cfg(16));
  EXPECT_FALSE(tight.price(DriverOptions{}).has_value());
}

TEST(PlanCache, CapacityBoundsMemoAndCountsEvictions) {
  RetentionApp made = RetentionApp::make(/*iterations=*/8);
  const extract::ScheduleAnalysis analysis(made.sched);
  const arch::M1Config cfg = test_cfg(4096);
  const csched::ContextPlan ctx_plan =
      csched::ContextPlan::build(made.sched, cfg.cm_capacity_words);
  PlanCache plans(analysis, cfg, /*capacity=*/2);
  EXPECT_EQ(plans.capacity(), 2u);

  DriverOptions options;
  options.rf = 1;
  (void)plans.decide(options);
  options.rf = 2;
  (void)plans.decide(options);
  EXPECT_EQ(plans.stats().evictions, 0u);

  // Third distinct key: over capacity — computed but not memoized.
  options.rf = 4;
  const RoundDecision& overflow = plans.decide(options);
  ASSERT_TRUE(overflow.ok);
  EXPECT_EQ(plans.stats().evictions, 1u);
  EXPECT_EQ(plans.stats().misses, 3u);

  // The overflow result is correct (same as a fresh walk) even though it
  // was never stored...
  PlanScratch scratch;
  EXPECT_EQ(testing::decision_fingerprint(overflow),
            testing::decision_fingerprint(
                decide_round(analysis, cfg.fb_set_size, options, scratch)));

  // ...and re-requesting it misses again (counts another eviction), while
  // the keys admitted under capacity still hit.
  (void)plans.decide(options);
  EXPECT_EQ(plans.stats().evictions, 2u);
  options.rf = 1;
  (void)plans.decide(options);
  EXPECT_EQ(plans.stats().hits, 1u);

  // Reusing the overflow slot drops its occupant's memoized price: each
  // overflowing key prices its own walk.
  for (const std::uint32_t rf : {4u, 8u, 4u}) {
    options.rf = rf;
    const std::optional<Cycles> priced = plans.price(options);
    ASSERT_TRUE(priced.has_value()) << "rf=" << rf;
    const RoundDecision fresh = decide_round(analysis, cfg.fb_set_size, options, scratch);
    EXPECT_EQ(*priced, predict_cost(made.sched, rf, fresh.plan, cfg, ctx_plan).total) << "rf=" << rf;
  }
  EXPECT_EQ(plans.stats().evictions, 5u);
}

TEST(PlanCache, DefaultCapacityAdmitsTypicalScan) {
  RetentionApp made = RetentionApp::make(/*iterations=*/6);
  const extract::ScheduleAnalysis analysis(made.sched);
  PlanCache plans(analysis, test_cfg(4096));
  EXPECT_EQ(plans.capacity(), PlanCache::kDefaultCapacity);

  DriverOptions options;
  for (std::uint32_t rf : {1u, 2u, 3u, 4u, 5u, 6u}) {
    options.rf = rf;
    (void)plans.decide(options);
  }
  EXPECT_EQ(plans.stats().evictions, 0u);
}

TEST(PlanCache, ScheduleIsTheOnlyPlacementWalk) {
  // Deciding, pricing and re-deciding run decision walks only; schedule()
  // runs one placement walk.
  RetentionApp made = RetentionApp::make(/*iterations=*/6);
  const extract::ScheduleAnalysis analysis(made.sched);
  PlanCache plans(analysis, test_cfg(4096));
  DriverOptions options;
  options.rf = 2;
  const obs::MetricsSnapshot before = obs::snapshot();
  (void)plans.decide(options);
  (void)plans.price(options);
  (void)plans.decide(options);
  const obs::MetricsSnapshot decided = obs::snapshot().since(before);
  EXPECT_EQ(decided.counter("dsched.plan.rounds"), 1u);
  EXPECT_EQ(decided.counter("dsched.plan.placements"), 0u);
  EXPECT_TRUE(plans.schedule(options, "DS").feasible);
  EXPECT_EQ(obs::snapshot().since(before).counter("dsched.plan.placements"), 1u);
}

}  // namespace
}  // namespace msys::dsched
