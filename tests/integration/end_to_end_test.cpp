// Full-pipeline integration tests over the whole experiment registry:
// every (workload, scheduler) pair runs schedule -> codegen -> simulation
// with functional checking on, and the analytic prediction must match the
// simulator cycle-for-cycle (run_experiment asserts this internally).
#include <gtest/gtest.h>

#include "msys/report/runner.hpp"
#include "msys/workloads/experiments.hpp"

namespace msys::report {
namespace {

class EndToEnd : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    exp_ = std::make_unique<workloads::Experiment>(
        workloads::make_experiment(GetParam()));
    result_ = std::make_unique<ExperimentResult>(
        run_experiment(exp_->name, exp_->sched, exp_->cfg));
  }

  std::unique_ptr<workloads::Experiment> exp_;
  std::unique_ptr<ExperimentResult> result_;
};

TEST_P(EndToEnd, DsAndCdsAlwaysFeasible) {
  EXPECT_TRUE(result_->ds.feasible());
  EXPECT_TRUE(result_->cds.feasible());
}

TEST_P(EndToEnd, PredictionMatchesSimulation) {
  // run_experiment throws on mismatch; spell the checks out once more for
  // the report fields the tables consume.
  for (const SchedulerOutcome* o : {&result_->basic, &result_->ds, &result_->cds}) {
    if (!o->feasible()) continue;
    ASSERT_TRUE(o->measured.has_value());
    EXPECT_EQ(o->predicted().total, o->measured->total) << o->scheduler;
    EXPECT_EQ(o->predicted().data_words_total(), o->measured->data_words_total());
  }
}

TEST_P(EndToEnd, ImprovementOrdering) {
  // The paper's headline: CDS >= DS >= Basic (in time: T_cds <= T_ds <=
  // T_basic) whenever all are feasible.
  if (!result_->basic.feasible()) GTEST_SKIP() << "Basic infeasible on this row";
  EXPECT_LE(result_->ds.cycles(), result_->basic.cycles());
  EXPECT_LE(result_->cds.cycles(), result_->ds.cycles());
  auto ds = result_->ds_improvement();
  auto cds = result_->cds_improvement();
  ASSERT_TRUE(ds.has_value());
  ASSERT_TRUE(cds.has_value());
  EXPECT_GE(*ds, 0.0);
  EXPECT_GE(*cds, *ds);
}

TEST_P(EndToEnd, CdsNeverMovesMoreData) {
  if (!result_->ds.feasible() || !result_->cds.feasible()) GTEST_SKIP();
  EXPECT_LE(result_->cds.predicted().data_words_total(),
            result_->ds.predicted().data_words_total());
  EXPECT_EQ(result_->cds.predicted().context_words, result_->ds.predicted().context_words)
      << "retention must not change context traffic";
}

TEST_P(EndToEnd, NoDataObjectEverSplit) {
  // Paper §6: "For all examples no data or result has to be split into
  // several parts."
  for (const SchedulerOutcome* o : {&result_->basic, &result_->ds, &result_->cds}) {
    if (!o->feasible()) continue;
    EXPECT_EQ(o->schedule().alloc_summary.splits, 0u) << o->scheduler;
  }
}

TEST_P(EndToEnd, PeakResidencyWithinFbSet) {
  for (const SchedulerOutcome* o : {&result_->basic, &result_->ds, &result_->cds}) {
    if (!o->feasible()) continue;
    ASSERT_TRUE(o->measured.has_value());
    EXPECT_LE(o->measured->max_resident_words[0], exp_->cfg.fb_set_size.value());
    EXPECT_LE(o->measured->max_resident_words[1], exp_->cfg.fb_set_size.value());
    EXPECT_LE(o->measured->max_cm_words, exp_->cfg.cm_capacity_words);
  }
}

TEST_P(EndToEnd, RfRespectsIterationCount) {
  EXPECT_GE(result_->rf(), 1u);
  EXPECT_LE(result_->rf(), exp_->app->total_iterations());
  EXPECT_EQ(result_->basic.schedule().rf, 1u);
}

TEST_P(EndToEnd, RegularityHintsMostlyHit) {
  // §5 regularity: for RF > 1 the planner re-places following iterations
  // next to the previous one; on these workloads the hint always lands.
  const SchedulerOutcome& cds = result_->cds;
  if (!cds.feasible() || cds.schedule().rf < 2) GTEST_SKIP();
  EXPECT_GT(cds.schedule().alloc_summary.preferred_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllExperiments, EndToEnd,
                         ::testing::ValuesIn(workloads::table1_experiment_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '*') c = 's';
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace msys::report
