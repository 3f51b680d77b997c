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
  // The CDS pipeline is the one rung: nothing can rescue it.
  ASSERT_EQ(outcome.attempts.size(), 1u);
  EXPECT_TRUE(outcome.attempts[0].attempted);
  EXPECT_TRUE(outcome.attempts[0].succeeded);
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
  ASSERT_EQ(outcome.attempts.size(), 1u);
  EXPECT_TRUE(outcome.attempts[0].attempted);
  EXPECT_FALSE(outcome.attempts[0].succeeded);
  // The reason is the RF-1 walk's: it names the cluster that does not fit.
  EXPECT_EQ(outcome.attempts[0].reason.rfind("cluster Cl", 0), 0u)
      << outcome.attempts[0].reason;
  EXPECT_NE(outcome.attempts[0].reason.find(" does not fit a 100-word FB set at RF=1"),
            std::string::npos)
      << outcome.attempts[0].reason;
  // And the outcome carries a structured diagnostic naming the chain.
  ASSERT_TRUE(has_errors(outcome.diagnostics));
  const Diagnostic& d = outcome.diagnostics.back();
  EXPECT_EQ(d.code, "schedule.infeasible");
  EXPECT_NE(d.message.find("CDS:failed(" + outcome.attempts[0].reason + ")"),
            std::string::npos)
      << d.message;
}

TEST(Fallback, ChainSummaryNamesEveryRung) {
  RetentionApp r = RetentionApp::make();
  ScheduleAnalysis analysis(r.sched);
  EXPECT_EQ(schedule_with_fallback(analysis, test_cfg(4096)).chain_summary(), "CDS:ok");
  const FallbackOptions rescue{.pipeline = Pipeline::kBasicThenRescue};
  EXPECT_EQ(schedule_with_fallback(analysis, test_cfg(4096), rescue).chain_summary(),
            "Basic:ok -> DS+split:skipped");
  const ScheduleOutcome bad = schedule_with_fallback(analysis, test_cfg(16), rescue);
  EXPECT_EQ(bad.chain_summary().rfind("Basic:failed(", 0), 0u) << bad.chain_summary();
  EXPECT_NE(bad.chain_summary().find(" -> DS+split:failed("), std::string::npos);
}

TEST(Fallback, KeepsMostAmbitiousInfeasibleRecord) {
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  const ScheduleOutcome outcome = schedule_with_fallback(
      analysis, test_cfg(100), {.pipeline = Pipeline::kBasicThenRescue});
  ASSERT_FALSE(outcome.feasible());
  // The reported schedule is the first rung's, reason and all, so callers
  // see what the scheduler the pipeline is named for said.
  EXPECT_EQ(outcome.schedule.scheduler_name, "Basic");
  EXPECT_FALSE(outcome.schedule.infeasible_reason.empty());
}

TEST(Fallback, DegradedEntrySkipsCdsAndWinsAtDs) {
  // The serve layer's degraded DS compile is the DS pipeline: one rung,
  // no CDS attempt.
  RetentionApp r = RetentionApp::make();
  ScheduleAnalysis analysis(r.sched);
  const ScheduleOutcome outcome =
      schedule_with_fallback(analysis, test_cfg(4096), {.pipeline = Pipeline::kDS});
  ASSERT_TRUE(outcome.feasible());
  EXPECT_EQ(outcome.chosen_rung(), "DS");
  EXPECT_EQ(outcome.chain_summary(), "DS:ok");
  EXPECT_TRUE(validate_schedule(outcome.schedule, analysis, test_cfg(4096)).empty());
}

TEST(Fallback, BasicEntrySkipsBothSmarterRungs) {
  // Basic-then-rescue never tries CDS or DS; where Basic fits, the rescue
  // rung is not reached.
  RetentionApp r = RetentionApp::make();
  ScheduleAnalysis analysis(r.sched);
  const ScheduleOutcome outcome = schedule_with_fallback(
      analysis, test_cfg(4096), {.pipeline = Pipeline::kBasicThenRescue});
  ASSERT_TRUE(outcome.feasible());
  EXPECT_EQ(outcome.chosen_rung(), "Basic");
  ASSERT_EQ(outcome.attempts.size(), 2u);
  EXPECT_TRUE(outcome.attempts[0].succeeded);
  EXPECT_FALSE(outcome.attempts[1].attempted);
  EXPECT_EQ(outcome.attempts[1].reason, "not reached");
  EXPECT_TRUE(validate_schedule(outcome.schedule, analysis, test_cfg(4096)).empty());
}

TEST(Fallback, DegradedEntryStillFallsThroughOnFailure) {
  // Where Basic does not fit, Basic-then-rescue goes on to DS at RF 1,
  // which releases each object after its last use.
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  const FallbackOptions rescue{.pipeline = Pipeline::kBasicThenRescue};
  for (std::uint64_t fb = 100; fb <= 4096; ++fb) {
    const ScheduleOutcome outcome = schedule_with_fallback(analysis, test_cfg(fb), rescue);
    ASSERT_EQ(outcome.attempts.size(), 2u);
    if (outcome.attempts[0].succeeded) break;  // Basic fits from here on
    EXPECT_TRUE(outcome.attempts[1].attempted) << fb;
    if (!outcome.feasible()) {
      EXPECT_TRUE(has_errors(outcome.diagnostics)) << fb;
      continue;
    }
    EXPECT_EQ(outcome.chosen_rung(), "DS+split") << fb;
    EXPECT_EQ(outcome.schedule.rf, 1u);
    EXPECT_TRUE(validate_schedule(outcome.schedule, analysis, test_cfg(fb)).empty()) << fb;
    return;
  }
  ADD_FAILURE() << "no FB size where only the rescue rung fits";
}

TEST(Fallback, RungsShareOneDecisionMemo) {
  // A pipeline's rungs decide through one PlanCache.  On a hopeless
  // machine the CDS walks once (RF 1, nothing retained) and reads that
  // walk's failure reason back as a hit; it places nothing.  A CDS that
  // fits places exactly its one schedule.
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  obs::MetricsSnapshot before = obs::snapshot();
  EXPECT_FALSE(schedule_with_fallback(analysis, test_cfg(100)).feasible());
  obs::MetricsSnapshot delta = obs::snapshot().since(before);
  EXPECT_EQ(delta.counter("dsched.plan.rounds"), 1u);
  EXPECT_EQ(delta.counter("dsched.plan.placements"), 0u);
  EXPECT_EQ(delta.counter("dsched.plan_cache.hits"), 1u);

  before = obs::snapshot();
  EXPECT_EQ(schedule_with_fallback(analysis, test_cfg(4096)).chosen_rung(), "CDS");
  delta = obs::snapshot().since(before);
  EXPECT_GT(delta.counter("dsched.plan.rounds"), 0u);
  EXPECT_EQ(delta.counter("dsched.plan.placements"), 1u);
}

}  // namespace
}  // namespace msys::dsched
