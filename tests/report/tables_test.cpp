#include "msys/report/tables.hpp"

#include <gtest/gtest.h>

#include "msys/common/error.hpp"
#include "msys/workloads/experiments.hpp"
#include "testing/apps.hpp"

namespace msys::report {
namespace {

using testing::TwoClusterApp;
using testing::test_cfg;

class TablesFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    app_ = std::make_unique<TwoClusterApp>(TwoClusterApp::make(/*iterations=*/4));
    result_ = std::make_unique<ExperimentResult>(
        run_experiment("demo", app_->sched, test_cfg(1024, 127)));
  }
  std::unique_ptr<TwoClusterApp> app_;
  std::unique_ptr<ExperimentResult> result_;
};

TEST_F(TablesFixture, Table1RowContents) {
  TextTable t = table1({*result_});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("demo"), std::string::npos);
  // N=2 clusters, n=2 kernels per cluster.
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("demo,2,2,"), std::string::npos);
}

TEST_F(TablesFixture, Fig6PercentagesPresent) {
  TextTable t = fig6({*result_});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("demo,"), std::string::npos);
  EXPECT_NE(csv.find('%'), std::string::npos);
}

TEST_F(TablesFixture, Fig6AsciiBarsScaleWithImprovement) {
  const std::string chart = fig6_ascii({*result_});
  EXPECT_NE(chart.find("demo"), std::string::npos);
  EXPECT_NE(chart.find("CDS |"), std::string::npos);
  EXPECT_NE(chart.find("DS  |"), std::string::npos);
}

TEST_F(TablesFixture, DetailTableListsAllSchedulers) {
  const std::string s = detail_table({*result_}).to_string();
  EXPECT_NE(s.find("Basic"), std::string::npos);
  EXPECT_NE(s.find("DS"), std::string::npos);
  EXPECT_NE(s.find("CDS"), std::string::npos);
  EXPECT_NE(s.find("Cycles"), std::string::npos);
}

TEST(Tables, InfeasibleRowsRenderAsNa) {
  TwoClusterApp t = TwoClusterApp::make();
  // Basic cannot fit in 300 words (needs 320); DS/CDS can (250).
  ExperimentResult r = run_experiment("tight", t.sched, test_cfg(300));
  EXPECT_FALSE(r.basic.feasible());
  const std::string s = table1({r}).to_string();
  EXPECT_NE(s.find("n/a"), std::string::npos);
  const std::string detail = detail_table({r}).to_string();
  EXPECT_NE(detail.find("infeasible"), std::string::npos);
}

TEST(Tables, MetricsMatchOutcomes) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/4);
  ExperimentResult r = run_experiment("demo", t.sched, test_cfg(1024, 127));
  ASSERT_TRUE(r.basic.feasible() && r.cds.feasible());
  const double expected =
      1.0 - static_cast<double>(r.cds.cycles().value()) /
                static_cast<double>(r.basic.cycles().value());
  EXPECT_NEAR(*r.cds_improvement(), expected, 1e-12);
  EXPECT_EQ(r.total_iterations, 4u);
  // DT is (basic words - cds words) / iterations.
  const std::uint64_t diff =
      r.basic.predicted().data_words_total() - r.cds.predicted().data_words_total();
  EXPECT_EQ(r.dt_words_avoided_per_iteration().value(), diff / 4);
}

TEST(Tables, SchedulerOutcomeCyclesThrowsWhenInfeasible) {
  TwoClusterApp t = TwoClusterApp::make();
  ExperimentResult r = run_experiment("tight", t.sched, test_cfg(300));
  EXPECT_THROW((void)r.basic.cycles(), Error);
}

}  // namespace
}  // namespace msys::report
