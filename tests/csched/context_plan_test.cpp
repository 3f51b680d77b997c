#include "msys/csched/context_plan.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "msys/common/error.hpp"
#include "testing/apps.hpp"

namespace msys::csched {
namespace {

using testing::TwoClusterApp;

// TwoClusterApp: 2 clusters x 2 kernels x 32 context words = 64/cluster,
// 128 total.

TEST(ContextPlan, PersistentWhenEverythingFits) {
  TwoClusterApp t = TwoClusterApp::make();
  ContextPlan plan = ContextPlan::build(t.sched, 128);
  ASSERT_TRUE(plan.feasible());
  EXPECT_EQ(plan.regime(), ContextRegime::kPersistent);
  EXPECT_TRUE(plan.overlaps_compute());
  // Loads only in round 0.
  EXPECT_EQ(plan.words_for_slot(0, ClusterId{0}), 64u);
  EXPECT_EQ(plan.words_for_slot(1, ClusterId{0}), 0u);
  EXPECT_EQ(plan.total_context_words(10), 128u);
}

TEST(ContextPlan, PerSlotOverlapWhenPairsFit) {
  // Three 64-word clusters: total 192 exceeds a 128-word CM but every
  // adjacent pair fits, so loads prefetch one slot ahead.
  model::ApplicationBuilder b("x", 2);
  std::vector<KernelId> ks;
  for (int i = 0; i < 3; ++i) {
    DataId d = b.external_input("d" + std::to_string(i), SizeWords{8});
    KernelId k = b.kernel("k" + std::to_string(i), 64, Cycles{10}, {d});
    b.output(k, "o" + std::to_string(i), SizeWords{4}, true);
    ks.push_back(k);
  }
  model::Application app = std::move(b).build();
  model::KernelSchedule sched =
      model::KernelSchedule::from_partition(app, {{ks[0]}, {ks[1]}, {ks[2]}});
  ContextPlan plan = ContextPlan::build(sched, 128);
  ASSERT_TRUE(plan.feasible());
  EXPECT_EQ(plan.regime(), ContextRegime::kPerSlotOverlap);
  EXPECT_TRUE(plan.overlaps_compute());
  EXPECT_EQ(plan.words_for_slot(3, ClusterId{1}), 64u);
  EXPECT_EQ(plan.total_context_words(10), 1920u);
}

TEST(ContextPlan, PerSlotSerialWhenOnlyOneClusterFits) {
  TwoClusterApp t = TwoClusterApp::make();
  // With two clusters the adjacent pair IS the whole application, so any
  // CM below 128 that still holds one 64-word cluster serialises loads.
  ContextPlan plan = ContextPlan::build(t.sched, 100);
  ASSERT_TRUE(plan.feasible());
  EXPECT_EQ(plan.regime(), ContextRegime::kPerSlotSerial);
  EXPECT_FALSE(plan.overlaps_compute());
}

TEST(ContextPlan, InfeasibleWhenClusterExceedsCm) {
  TwoClusterApp t = TwoClusterApp::make();
  ContextPlan plan = ContextPlan::build(t.sched, 63);
  EXPECT_FALSE(plan.feasible());
  EXPECT_NE(plan.infeasible_reason().find("64"), std::string::npos);
}

TEST(ContextPlan, QueryingInfeasiblePlanThrows) {
  TwoClusterApp t = TwoClusterApp::make();
  ContextPlan plan = ContextPlan::build(t.sched, 1);
  EXPECT_THROW((void)plan.words_for_slot(0, ClusterId{0}), Error);
  EXPECT_THROW((void)plan.total_context_words(1), Error);
}

TEST(ContextPlan, RegimeNames) {
  EXPECT_EQ(to_string(ContextRegime::kPersistent), "persistent");
  EXPECT_EQ(to_string(ContextRegime::kPerSlotOverlap), "per-slot-overlapped");
  EXPECT_EQ(to_string(ContextRegime::kPerSlotSerial), "per-slot-serial");
}

TEST(ContextPlan, WrapAroundPairConsidered) {
  // 3 clusters: last-to-first adjacency (next round) also constrains the
  // overlap regime.
  model::ApplicationBuilder b("x", 2);
  std::vector<KernelId> ks;
  const std::uint32_t ctx[3] = {60, 10, 60};
  for (int i = 0; i < 3; ++i) {
    DataId d = b.external_input("d" + std::to_string(i), SizeWords{8});
    KernelId k = b.kernel("k" + std::to_string(i), ctx[i], Cycles{10}, {d});
    b.output(k, "o" + std::to_string(i), SizeWords{4}, true);
    ks.push_back(k);
  }
  model::Application app = std::move(b).build();
  model::KernelSchedule sched =
      model::KernelSchedule::from_partition(app, {{ks[0]}, {ks[1]}, {ks[2]}});
  // Adjacent pairs: 70, 70, and the wrap k2+k0 = 120.
  ContextPlan plan = ContextPlan::build(sched, 119);
  ASSERT_TRUE(plan.feasible());
  EXPECT_EQ(plan.regime(), ContextRegime::kPerSlotSerial);
  ContextPlan plan2 = ContextPlan::build(sched, 120);
  EXPECT_EQ(plan2.regime(), ContextRegime::kPerSlotOverlap);
}

TEST(ContextPlan, RoundMattersOnlyThroughRoundZero) {
  // dsched::predict_cost asks about rounds 0 and 1 once per cluster and
  // reuses the round-1 answer for every later round.  Three 64-word
  // clusters put the plan in each regime in turn.
  model::ApplicationBuilder b("x", 2);
  std::vector<KernelId> ks;
  for (int i = 0; i < 3; ++i) {
    DataId d = b.external_input("d" + std::to_string(i), SizeWords{8});
    KernelId k = b.kernel("k" + std::to_string(i), 64, Cycles{10}, {d});
    b.output(k, "o" + std::to_string(i), SizeWords{4}, true);
    ks.push_back(k);
  }
  model::Application app = std::move(b).build();
  model::KernelSchedule sched =
      model::KernelSchedule::from_partition(app, {{ks[0]}, {ks[1]}, {ks[2]}});
  const std::pair<std::uint32_t, ContextRegime> regimes[] = {
      {192, ContextRegime::kPersistent},
      {128, ContextRegime::kPerSlotOverlap},
      {64, ContextRegime::kPerSlotSerial}};
  for (const auto& [cm, regime] : regimes) {
    ContextPlan plan = ContextPlan::build(sched, cm);
    ASSERT_TRUE(plan.feasible());
    ASSERT_EQ(plan.regime(), regime);
    for (std::uint32_t c = 0; c < 3; ++c) {
      for (std::uint32_t round = 1; round <= 8; ++round) {
        EXPECT_EQ(plan.words_for_slot(round, ClusterId{c}),
                  plan.words_for_slot(1, ClusterId{c}))
            << to_string(regime) << " cluster " << c << " round " << round;
      }
    }
  }
}

}  // namespace
}  // namespace msys::csched
