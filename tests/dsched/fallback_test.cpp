#include "msys/dsched/fallback.hpp"

#include <gtest/gtest.h>

#include "msys/dsched/validate.hpp"
#include "msys/obs/metrics.hpp"
#include "testing/apps.hpp"

namespace msys::dsched {
namespace {

using extract::ScheduleAnalysis;
using testing::RetentionApp;
using testing::TwoClusterApp;
using testing::test_cfg;

TEST(Fallback, GenerousMachineStopsAtCds) {
  RetentionApp r = RetentionApp::make();
  ScheduleAnalysis analysis(r.sched);
  const arch::M1Config cfg = test_cfg(4096);
  const ScheduleOutcome outcome = schedule_with_fallback(analysis, cfg);
  ASSERT_TRUE(outcome.feasible());
  EXPECT_EQ(outcome.chosen_rung(), "CDS");
  EXPECT_TRUE(outcome.diagnostics.empty());
  ASSERT_EQ(outcome.attempts.size(), 4u);
  EXPECT_TRUE(outcome.attempts[0].attempted);
  EXPECT_TRUE(outcome.attempts[0].succeeded);
  for (std::size_t i = 1; i < outcome.attempts.size(); ++i) {
    EXPECT_FALSE(outcome.attempts[i].attempted) << outcome.attempts[i].rung;
    EXPECT_EQ(outcome.attempts[i].reason, "not reached");
  }
  // The winning schedule is a real schedule, not just a flag.
  EXPECT_TRUE(validate_schedule(outcome.schedule, analysis, cfg).empty());
}

TEST(Fallback, HopelessMachineIsStructuredInfeasibility) {
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(100);  // largest cluster needs far more
  const ScheduleOutcome outcome = schedule_with_fallback(analysis, cfg);
  EXPECT_FALSE(outcome.feasible());
  EXPECT_EQ(outcome.chosen_rung(), "");
  // Every rung was actually tried and left a reason behind.
  ASSERT_EQ(outcome.attempts.size(), 4u);
  for (const FallbackAttempt& attempt : outcome.attempts) {
    EXPECT_TRUE(attempt.attempted) << attempt.rung;
    EXPECT_FALSE(attempt.succeeded) << attempt.rung;
    EXPECT_FALSE(attempt.reason.empty()) << attempt.rung;
  }
  // And the outcome carries a structured diagnostic naming the chain.
  ASSERT_TRUE(has_errors(outcome.diagnostics));
  const Diagnostic& d = outcome.diagnostics.back();
  EXPECT_EQ(d.code, "schedule.infeasible");
  EXPECT_NE(d.message.find("CDS"), std::string::npos);
  EXPECT_NE(d.message.find("DS+split"), std::string::npos);
}

TEST(Fallback, ChainSummaryNamesEveryRung) {
  RetentionApp r = RetentionApp::make();
  ScheduleAnalysis analysis(r.sched);
  const ScheduleOutcome ok = schedule_with_fallback(analysis, test_cfg(4096));
  EXPECT_EQ(ok.chain_summary(),
            "CDS:ok -> DS:skipped -> Basic:skipped -> DS+split:skipped");
  const ScheduleOutcome bad = schedule_with_fallback(analysis, test_cfg(16));
  EXPECT_NE(bad.chain_summary().find("CDS:failed("), std::string::npos);
  EXPECT_NE(bad.chain_summary().find("DS+split:failed("), std::string::npos);
}

TEST(Fallback, KeepsMostAmbitiousInfeasibleRecord) {
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  const ScheduleOutcome outcome = schedule_with_fallback(analysis, test_cfg(100));
  ASSERT_FALSE(outcome.feasible());
  // The reported schedule is the CDS attempt, reason and all, so callers
  // see what the most capable scheduler said.
  EXPECT_EQ(outcome.schedule.scheduler_name, "CDS");
  EXPECT_FALSE(outcome.schedule.infeasible_reason.empty());
}

TEST(Fallback, DegradedEntrySkipsCdsAndWinsAtDs) {
  RetentionApp r = RetentionApp::make();
  ScheduleAnalysis analysis(r.sched);
  FallbackOptions options;
  options.entry = FallbackEntry::kDS;
  const ScheduleOutcome outcome =
      schedule_with_fallback(analysis, test_cfg(4096), options);
  ASSERT_TRUE(outcome.feasible());
  EXPECT_EQ(outcome.chosen_rung(), "DS");
  ASSERT_EQ(outcome.attempts.size(), 4u);
  EXPECT_FALSE(outcome.attempts[0].attempted);
  EXPECT_EQ(outcome.attempts[0].reason, "degraded entry");
  EXPECT_TRUE(outcome.attempts[1].attempted);
  EXPECT_TRUE(outcome.attempts[1].succeeded);
  EXPECT_EQ(outcome.chain_summary(),
            "CDS:skipped -> DS:ok -> Basic:skipped -> DS+split:skipped");
  EXPECT_TRUE(validate_schedule(outcome.schedule, analysis, test_cfg(4096)).empty());
}

TEST(Fallback, BasicEntrySkipsBothSmarterRungs) {
  RetentionApp r = RetentionApp::make();
  ScheduleAnalysis analysis(r.sched);
  FallbackOptions options;
  options.entry = FallbackEntry::kBasic;
  const ScheduleOutcome outcome =
      schedule_with_fallback(analysis, test_cfg(4096), options);
  ASSERT_TRUE(outcome.feasible());
  EXPECT_EQ(outcome.chosen_rung(), "Basic");
  ASSERT_EQ(outcome.attempts.size(), 4u);
  EXPECT_FALSE(outcome.attempts[0].attempted);
  EXPECT_FALSE(outcome.attempts[1].attempted);
  EXPECT_EQ(outcome.attempts[0].reason, "degraded entry");
  EXPECT_EQ(outcome.attempts[1].reason, "degraded entry");
  EXPECT_TRUE(outcome.attempts[2].attempted);
  EXPECT_TRUE(validate_schedule(outcome.schedule, analysis, test_cfg(4096)).empty());
}

TEST(Fallback, DegradedEntryStillFallsThroughOnFailure) {
  // A degraded entry narrows where the chain *starts*, not where it can
  // go: on a hopeless machine the DS entry still walks Basic and DS+split
  // before reporting structured infeasibility.
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  FallbackOptions options;
  options.entry = FallbackEntry::kDS;
  const ScheduleOutcome outcome =
      schedule_with_fallback(analysis, test_cfg(100), options);
  EXPECT_FALSE(outcome.feasible());
  ASSERT_EQ(outcome.attempts.size(), 4u);
  EXPECT_FALSE(outcome.attempts[0].attempted);
  for (std::size_t i = 1; i < outcome.attempts.size(); ++i) {
    EXPECT_TRUE(outcome.attempts[i].attempted) << outcome.attempts[i].rung;
    EXPECT_FALSE(outcome.attempts[i].succeeded) << outcome.attempts[i].rung;
  }
  EXPECT_TRUE(has_errors(outcome.diagnostics));
}

TEST(Fallback, RungsShareOneDecisionMemo) {
  // The rungs decide through one PlanCache: on a hopeless machine DS's
  // RF-1 walk is CDS's and DS+split's is DS's, so the chain walks twice
  // (CDS's RF-1 walk and Basic's) and places nothing.  A chain that CDS
  // wins places exactly its one schedule.
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  obs::MetricsSnapshot before = obs::snapshot();
  EXPECT_FALSE(schedule_with_fallback(analysis, test_cfg(100)).feasible());
  obs::MetricsSnapshot delta = obs::snapshot().since(before);
  EXPECT_EQ(delta.counter("dsched.plan.rounds"), 2u);
  EXPECT_EQ(delta.counter("dsched.plan.placements"), 0u);
  EXPECT_EQ(delta.counter("dsched.plan_cache.hits"), 2u);

  before = obs::snapshot();
  EXPECT_EQ(schedule_with_fallback(analysis, test_cfg(4096)).chosen_rung(), "CDS");
  delta = obs::snapshot().since(before);
  EXPECT_GT(delta.counter("dsched.plan.rounds"), 0u);
  EXPECT_EQ(delta.counter("dsched.plan.placements"), 1u);
}

}  // namespace
}  // namespace msys::dsched
