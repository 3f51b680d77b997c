#include "msys/dsched/validate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "msys/dsched/schedulers.hpp"
#include "testing/apps.hpp"
#include "testing/placements.hpp"
#include "testing/round_plan_edit.hpp"

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
  testing::edit_loads(s.round_plan, ClusterId{0}, [](auto& loads) { loads.pop_back(); });
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
  testing::edit_stores(s.round_plan, ClusterId{0}, [](auto& stores) { stores.clear(); });
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
  testing::edit_loads(s.round_plan, ClusterId{0}, [&](auto& loads) { loads.push_back({mid, 0}); });
  ASSERT_TRUE(s.has_placement(ClusterId{0}, {mid, 0}));  // the result's own placement
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
  testing::set_extents(s, ClusterId{0}, {a, 0}, {Extent{1000, SizeWords{100}}});
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
  testing::set_extents(s, ClusterId{0}, {a, 0}, {Extent{0, SizeWords{10}}});  // a is 100 words
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
  // a is 100 words.
  testing::set_extents(s, ClusterId{0}, {a, 0},
                       {Extent{0, SizeWords{40}}, Extent{900, SizeWords{60}}});
  EXPECT_TRUE(validate_schedule(s, analysis, cfg).empty());
}

TEST(Validate, DetectsOverlappingSplitExtents) {
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024);
  DataSchedule s = DataScheduler{}.schedule(analysis, cfg);
  const DataId a = *t.app->find_data("a");
  // Words 40..59 twice.
  testing::set_extents(s, ClusterId{0}, {a, 0},
                       {Extent{0, SizeWords{60}}, Extent{40, SizeWords{40}}});
  const Diagnostics violations = validate_schedule(s, analysis, cfg);
  EXPECT_TRUE(has_code(violations, "validate.placement"));
  EXPECT_TRUE(mentions(violations, "overlap"));
}

// Lookups binary-search the placement records and read their extents in
// place, so records out of key order, a key placed twice or an extent range
// past the extent array make the schedule malformed.
TEST(Validate, DetectsMalformedPlacementRecords) {
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024);
  DataSchedule s = DataScheduler{}.schedule(analysis, cfg);
  ASSERT_GE(s.placements.size(), 2u);
  DataSchedule swapped = s;
  std::swap(swapped.placements[0], swapped.placements[1]);
  Diagnostics violations = validate_schedule(swapped, analysis, cfg);
  EXPECT_TRUE(has_code(violations, "validate.shape"));
  EXPECT_TRUE(mentions(violations, "not sorted by key"));
  DataSchedule doubled = s;
  doubled.placements.insert(doubled.placements.begin(), doubled.placements.front());
  violations = validate_schedule(doubled, analysis, cfg);
  EXPECT_TRUE(has_code(violations, "validate.shape"));
  EXPECT_TRUE(mentions(violations, "a key placed twice"));
  DataSchedule overrun = s;
  overrun.placements.back().extent_begin = static_cast<std::uint32_t>(s.extents.size());
  violations = validate_schedule(overrun, analysis, cfg);
  EXPECT_TRUE(has_code(violations, "validate.shape"));
  EXPECT_TRUE(mentions(violations, "extents outside the schedule"));
}

// Every reader slices the round plan's arrays by its cluster ends, so a
// malformed plan must stop at validate.shape before any slice is read.
class MalformedPlan : public ::testing::Test {
 protected:
  void SetUp() override {
    s = DataScheduler{}.schedule(analysis, cfg);
    ASSERT_TRUE(s.feasible);
    ASSERT_EQ(s.round_plan.cluster_count(), 2u);
    ASSERT_GT(s.round_plan.ends[1].loads, 0u);
  }
  /// The one violation of `s`, which must be a shape error naming `what`.
  void expect_shape_error(std::string_view what) const {
    const Diagnostics violations = validate_schedule(s, analysis, cfg);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations.front().code, "validate.shape");
    EXPECT_TRUE(mentions(violations, what)) << violations.front().message;
  }

  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis{t.sched};
  arch::M1Config cfg = test_cfg(1024);
  DataSchedule s;
};

TEST_F(MalformedPlan, TooFewEnds) {
  s.round_plan.ends.pop_back();
  expect_shape_error("does not cover every cluster");
}

TEST_F(MalformedPlan, DecreasingEnds) {
  // Cluster 0's slice would end past cluster 1's, and past the array.
  s.round_plan.ends[0].loads = s.round_plan.ends[1].loads + 1;
  expect_shape_error("cluster ends decrease");
}

TEST_F(MalformedPlan, EndPastItsArray) {
  ++s.round_plan.ends.back().stores;
  expect_shape_error("cluster ends do not match its arrays");
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
  const Placement home = s.placement(ClusterId{0}, {d, 0});
  testing::edit_loads(s.round_plan, ClusterId{2}, [&](auto& loads) { loads.push_back({d, 0}); });
  ASSERT_FALSE(s.has_placement(ClusterId{2}, {d, 0}));
  const std::vector<Extent> home_extents(home.extents.begin(), home.extents.end());
  testing::set_placement(s, ClusterId{2}, {d, 0}, home.set, home_extents);
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
