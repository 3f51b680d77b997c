#include "msys/dsched/validate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "msys/dsched/schedulers.hpp"
#include "testing/apps.hpp"

namespace msys::dsched {
namespace {

using extract::ScheduleAnalysis;
using testing::RetentionApp;
using testing::TwoClusterApp;
using testing::test_cfg;

bool mentions(const Diagnostics& violations, std::string_view needle) {
  return std::any_of(violations.begin(), violations.end(), [&](const Diagnostic& d) {
    return d.message.find(needle) != std::string::npos;
  });
}

bool has_code(const Diagnostics& violations, std::string_view code) {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

TEST(Validate, CleanSchedulesPass) {
  RetentionApp r = RetentionApp::make();
  ScheduleAnalysis analysis(r.sched);
  const arch::M1Config cfg = test_cfg(4096);
  for (const auto& scheduler : all_schedulers()) {
    DataSchedule s = scheduler->schedule(analysis, cfg);
    ASSERT_TRUE(s.feasible);
    EXPECT_TRUE(validate_schedule(s, analysis, cfg).empty()) << scheduler->name();
  }
}

TEST(Validate, DetectsMissingLoad) {
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024);
  DataSchedule s = DataScheduler{}.schedule(analysis, cfg);
  ASSERT_TRUE(s.feasible);
  s.round_plan[0].loads.pop_back();
  const Diagnostics violations = validate_schedule(s, analysis, cfg);
  ASSERT_FALSE(violations.empty());
  EXPECT_TRUE(has_code(violations, "validate.load"));
  EXPECT_NE(violations.front().message.find("never loads"), std::string::npos);
}

TEST(Validate, DetectsMissingStore) {
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024);
  DataSchedule s = DataScheduler{}.schedule(analysis, cfg);
  s.round_plan[0].stores.clear();
  const Diagnostics violations = validate_schedule(s, analysis, cfg);
  ASSERT_FALSE(violations.empty());
  EXPECT_TRUE(has_code(violations, "validate.store"));
  EXPECT_NE(violations.front().message.find("never stores"), std::string::npos);
}

TEST(Validate, DetectsBogusLoad) {
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024);
  DataSchedule s = DataScheduler{}.schedule(analysis, cfg);
  // Load an object that is produced inside the cluster.
  const DataId mid = *t.app->find_data("t");
  s.round_plan[0].loads.push_back({mid, 0});
  s.placements.emplace(DataSchedule::key(ClusterId{0}, {mid, 0}),
                       Placement{.set = FbSet::kA, .extents = {{0, SizeWords{60}}}});
  const Diagnostics violations = validate_schedule(s, analysis, cfg);
  EXPECT_TRUE(has_code(violations, "validate.load"));
  EXPECT_TRUE(mentions(violations, "not an input"));
}

TEST(Validate, DetectsOutOfRangePlacement) {
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024);
  DataSchedule s = DataScheduler{}.schedule(analysis, cfg);
  const DataId a = *t.app->find_data("a");
  s.placements.at(DataSchedule::key(ClusterId{0}, {a, 0})).extents = {
      Extent{1000, SizeWords{100}}};
  const Diagnostics violations = validate_schedule(s, analysis, cfg);
  EXPECT_TRUE(has_code(violations, "validate.placement"));
  EXPECT_TRUE(mentions(violations, "exceeds the FB set"));
}

TEST(Validate, DetectsPlacementSizeMismatch) {
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024);
  DataSchedule s = DataScheduler{}.schedule(analysis, cfg);
  const DataId a = *t.app->find_data("a");
  s.placements.at(DataSchedule::key(ClusterId{0}, {a, 0})).extents = {
      Extent{0, SizeWords{10}}};  // a is 100 words
  const Diagnostics violations = validate_schedule(s, analysis, cfg);
  EXPECT_TRUE(has_code(violations, "validate.placement"));
  EXPECT_TRUE(mentions(violations, "size mismatch"));
}

// A placement split over several disjoint extents that cover the object is
// legal (multi-extent splitting is how every walk recovers from
// fragmentation).
TEST(Validate, AcceptsSplitPlacements) {
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024);
  DataSchedule s = DataScheduler{}.schedule(analysis, cfg);
  ASSERT_TRUE(s.feasible);
  const DataId a = *t.app->find_data("a");
  Placement& p = s.placements.at(DataSchedule::key(ClusterId{0}, {a, 0}));
  p.extents = {Extent{0, SizeWords{40}}, Extent{900, SizeWords{60}}};  // a is 100 words
  EXPECT_TRUE(validate_schedule(s, analysis, cfg).empty());
}

TEST(Validate, DetectsOverlappingSplitExtents) {
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024);
  DataSchedule s = DataScheduler{}.schedule(analysis, cfg);
  const DataId a = *t.app->find_data("a");
  Placement& p = s.placements.at(DataSchedule::key(ClusterId{0}, {a, 0}));
  p.extents = {Extent{0, SizeWords{60}}, Extent{40, SizeWords{40}}};  // words 40..59 twice
  const Diagnostics violations = validate_schedule(s, analysis, cfg);
  EXPECT_TRUE(has_code(violations, "validate.placement"));
  EXPECT_TRUE(mentions(violations, "overlap"));
}

TEST(Validate, DetectsNonCandidateRetention) {
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024);
  DataSchedule s = DataScheduler{}.schedule(analysis, cfg);
  s.retained.insert(*t.app->find_data("a"));  // plain input, not a candidate
  const Diagnostics violations = validate_schedule(s, analysis, cfg);
  EXPECT_TRUE(has_code(violations, "validate.retained"));
  EXPECT_TRUE(mentions(violations, "not a retention candidate"));
}

// A retained object stays resident across every RF iteration of its span;
// re-loading it in a later cluster of that span contradicts the residency.
TEST(Validate, DetectsRetainedReloadInsideSpan) {
  RetentionApp r = RetentionApp::make();
  ScheduleAnalysis analysis(r.sched);
  const arch::M1Config cfg = test_cfg(4096);
  DataSchedule s = CompleteDataScheduler{}.schedule(analysis, cfg);
  ASSERT_TRUE(s.feasible);
  const DataId d = *r.app->find_data("d");  // shared by Cl1 and Cl3 (both set A)
  ASSERT_TRUE(s.retained.contains(d)) << "CDS should retain the shared input";
  EXPECT_TRUE(validate_schedule(s, analysis, cfg).empty());
  // Inject a bogus re-load of `d` in Cl3, mid-span, with a copied placement.
  const Placement home = s.placements.at(DataSchedule::key(ClusterId{0}, {d, 0}));
  s.round_plan[2].loads.push_back({d, 0});
  s.placements.emplace(DataSchedule::key(ClusterId{2}, {d, 0}), home);
  const Diagnostics violations = validate_schedule(s, analysis, cfg);
  EXPECT_TRUE(has_code(violations, "validate.retained"));
  EXPECT_TRUE(mentions(violations, "re-loaded inside its span"));
}

TEST(Validate, InfeasibleScheduleReported) {
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(100);
  DataSchedule s = BasicScheduler{}.schedule(analysis, cfg);
  const Diagnostics violations = validate_schedule(s, analysis, cfg);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations.front().code, "validate.infeasible");
  EXPECT_NE(violations.front().message.find("infeasible"), std::string::npos);
}

}  // namespace
}  // namespace msys::dsched
