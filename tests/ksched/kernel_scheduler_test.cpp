#include "msys/ksched/kernel_scheduler.hpp"

#include <gtest/gtest.h>

#include "testing/apps.hpp"

namespace msys::ksched {
namespace {

using testing::test_cfg;

/// Chain of n kernels, each feeding the next, identical shapes.
model::Application chain_app(int n, std::uint32_t iterations = 8) {
  model::ApplicationBuilder b("chain" + std::to_string(n), iterations);
  DataId carry{};
  for (int i = 0; i < n; ++i) {
    DataId priv = b.external_input("in" + std::to_string(i), SizeWords{40});
    KernelId k = b.kernel("k" + std::to_string(i), 24, Cycles{120}, {priv});
    if (i > 0) b.add_input(k, carry);
    if (i + 1 < n) {
      carry = b.output(k, "t" + std::to_string(i), SizeWords{20});
    } else {
      b.output(k, "r", SizeWords{16}, true);
    }
  }
  return std::move(b).build();
}

TEST(KernelScheduler, ExhaustiveFindsFeasibleSchedule) {
  model::Application app = chain_app(4);
  Options options;
  options.strategy = Options::Strategy::kExhaustive;
  SearchResult result = find_best_schedule(app, test_cfg(1024), options);
  ASSERT_TRUE(result.found());
  EXPECT_EQ(result.evaluated, 8u);  // 2^(4-1)
  EXPECT_GT(result.feasible_count, 0u);
  EXPECT_GT(result.best_cycles.value(), 0u);
}

TEST(KernelScheduler, BestBeatsOrEqualsEveryCandidate) {
  model::Application app = chain_app(5);
  Options options;
  options.strategy = Options::Strategy::kExhaustive;
  SearchResult result = find_best_schedule(app, test_cfg(1024), options);
  ASSERT_TRUE(result.found());
  for (const Candidate& cand : result.candidates) {
    if (cand.feasible) {
      EXPECT_LE(result.best_cycles, cand.cycles);
    }
  }
}

TEST(KernelScheduler, CandidatesSortedFeasibleFirst) {
  model::Application app = chain_app(4);
  Options options;
  options.strategy = Options::Strategy::kExhaustive;
  SearchResult result = find_best_schedule(app, test_cfg(256), options);
  bool seen_infeasible = false;
  for (const Candidate& cand : result.candidates) {
    if (!cand.feasible) seen_infeasible = true;
    if (seen_infeasible) {
      EXPECT_FALSE(cand.feasible);
    }
  }
}

TEST(KernelScheduler, NoScheduleWhenFbTooSmall) {
  model::Application app = chain_app(3);
  SearchResult result = find_best_schedule(app, test_cfg(16));
  EXPECT_FALSE(result.found());
  EXPECT_EQ(result.feasible_count, 0u);
}

TEST(KernelScheduler, GreedyFindsReasonableSchedule) {
  model::Application app = chain_app(6);
  Options exhaustive;
  exhaustive.strategy = Options::Strategy::kExhaustive;
  Options greedy;
  greedy.strategy = Options::Strategy::kGreedy;
  SearchResult exact = find_best_schedule(app, test_cfg(1024), exhaustive);
  SearchResult approx = find_best_schedule(app, test_cfg(1024), greedy);
  ASSERT_TRUE(exact.found());
  ASSERT_TRUE(approx.found());
  EXPECT_LT(approx.evaluated, exact.evaluated);
  // Greedy is within 35% of the exhaustive optimum on this easy chain.
  EXPECT_LE(approx.best_cycles.value(),
            exact.best_cycles.value() + exact.best_cycles.value() * 35 / 100);
}

TEST(KernelScheduler, AutoSwitchesToGreedyOverBudget) {
  model::Application app = chain_app(6);
  Options options;
  options.strategy = Options::Strategy::kAuto;
  options.exhaustive_budget = 4;  // 2^5 = 32 > 4
  SearchResult result = find_best_schedule(app, test_cfg(1024), options);
  ASSERT_TRUE(result.found());
  EXPECT_LT(result.evaluated, 32u);
}

TEST(KernelScheduler, SingleKernelApp) {
  model::Application app = chain_app(1);
  SearchResult result = find_best_schedule(app, test_cfg(1024));
  ASSERT_TRUE(result.found());
  EXPECT_EQ(result.evaluated, 1u);
  EXPECT_EQ(result.best->cluster_count(), 1u);
}

}  // namespace
}  // namespace msys::ksched
