// Unit tests for the benchmark's percentile rule and failure accounting.
//
//   cmake --build .bench_build --target perfbench_tests && .bench_build/perfbench_tests
#include "stats.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(NearestRank, IsCeilOfPTimesN) {
  EXPECT_EQ(nearest_rank(100, 0.5), 50u);
  EXPECT_EQ(nearest_rank(101, 0.5), 51u);
  EXPECT_EQ(nearest_rank(1000, 0.99), 990u);
  EXPECT_EQ(nearest_rank(1001, 0.99), 991u);
  EXPECT_EQ(nearest_rank(3, 0.01), 1u);
  EXPECT_EQ(nearest_rank(3, 1.0), 3u);
}

TEST(Percentile, ReturnsNearestRankSample) {
  EXPECT_EQ(percentile(one_to(1000), 0.99), 990.0);
  EXPECT_EQ(percentile(one_to(200), 0.5), 100.0);
  EXPECT_EQ(percentile(one_to(100), 0.9), 90.0);
}

TEST(Percentile, IgnoresInputOrder) {
  std::vector<double> v = one_to(1000);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(percentile(v, 0.99), 990.0);
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  // p99 of 1000 samples has exactly ten beyond it; of 999, only nine.
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_TRUE(percentile(one_to(1000), 0.99).has_value());
  EXPECT_FALSE(percentile(one_to(999), 0.99).has_value());
  EXPECT_FALSE(percentile(one_to(99), 0.9).has_value());
  EXPECT_TRUE(percentile(one_to(100), 0.9).has_value());
  EXPECT_FALSE(percentile({}, 0.5).has_value());
}

TEST(Median, OfRepeatedSetupTimes) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Tally, InfeasibleIsCorrectNotFailed) {
  Tally t;
  t.record("a", Verdict::kOk);
  t.record("b", Verdict::kInfeasible);
  EXPECT_EQ(t.attempted, 2u);
  EXPECT_EQ(t.infeasible, 1u);
  EXPECT_EQ(t.failed, 0u);
  EXPECT_TRUE(t.failing.empty());
}

TEST(Tally, FailuresAreCountedAndListedByInput) {
  Tally t;
  t.record("family:7", Verdict::kFailed);
  t.record("family:7", Verdict::kFailed);
  t.record("table1:E3", Verdict::kOk);
  t.record("large:9", Verdict::kFailed);
  EXPECT_EQ(t.attempted, 4u);
  EXPECT_EQ(t.failed, 3u);
  ASSERT_EQ(t.failing.size(), 2u);
  EXPECT_EQ(t.failing.at("family:7"), 2u);
  EXPECT_EQ(t.failing.at("large:9"), 1u);
}

TEST(Tally, KnownDivergenceIsListedButNotFailed) {
  Tally t;
  t.known_divergent = {"family:103695"};
  t.record("family:103695", Verdict::kFailed);
  t.record("family:1", Verdict::kFailed);
  EXPECT_EQ(t.attempted, 2u);
  EXPECT_EQ(t.failed, 1u);
  EXPECT_EQ(t.known_failures, 1u);
  EXPECT_EQ(t.failing.at("family:103695"), 1u);
  EXPECT_EQ(t.failing.at("family:1"), 1u);
}

}  // namespace
}  // namespace perfbench
