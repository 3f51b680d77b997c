// The fault-tolerance gate: the 520-case campaign stays clean with the
// fault injector armed against every store and compile site, and the
// persistent-store cross-check pass agrees with the in-process results
// (and is served from disk on a second run over the same directory).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "msys/common/fault_injector.hpp"
#include "msys/fuzzing/fuzzing.hpp"
#include "testing/scratch.hpp"

namespace msys::fuzzing {
namespace {

namespace fs = std::filesystem;

class FaultCampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::scratch_dir();
    fs::remove_all(dir_);
  }

  void TearDown() override {
    FaultInjector::global().disarm();
    fs::remove_all(dir_);
  }

  static void expect_clean(const CampaignStats& stats) {
    SCOPED_TRACE(stats.summary());
    for (const CampaignFailure& f : stats.failures) {
      ADD_FAILURE() << f.original.name << " ["
                    << f.result.failures.front().scheduler << " "
                    << f.result.failures.front().kind << ": "
                    << f.result.failures.front().detail << "]";
    }
    EXPECT_TRUE(stats.clean());
  }

  fs::path dir_;
};

// The acceptance gate: >= 500 seeded cases with the injector armed against
// every store site plus intermittent compile stalls, run through both the
// parallel phase and the serial store cross-check, with zero unstructured
// errors and zero divergences.
TEST_F(FaultCampaignTest, FaultArmedCampaignOf520IsClean) {
  std::string error;
  ASSERT_TRUE(FaultInjector::global().arm_from_spec(
      "seed=2026;store.write.torn=1/7;store.write.io_error=1/5;"
      "store.read.io_error=1/5;store.read.corrupt=1/11;"
      "engine.compile.stall=1/64:1",
      &error))
      << error;

  CampaignOptions options;
  options.n_threads = 4;
  options.store_dir = (dir_ / "store").string();
  const CampaignStats stats = run_campaign(/*base_seed=*/1, /*n_cases=*/520, options);
  expect_clean(stats);
  EXPECT_EQ(stats.cases, 520u);
  EXPECT_GT(stats.store_checked, 0u);
  // The injector genuinely fired — this was not a quiet run.
  EXPECT_GT(FaultInjector::global().total_injected(), 0u);
}

TEST_F(FaultCampaignTest, StoreCrossCheckServesFromDiskOnASecondRun) {
  CampaignOptions options;
  options.n_threads = 2;
  options.store_dir = (dir_ / "store").string();

  const CampaignStats cold = run_campaign(/*base_seed=*/9, /*n_cases=*/48, options);
  expect_clean(cold);
  EXPECT_GT(cold.store_checked, 0u);
  EXPECT_EQ(cold.store_disk_hits, 0u);  // nothing persisted before this run

  // Same seeds, same directory: the cross-check pass must now replay the
  // persisted schedules instead of recompiling, and still agree.
  const CampaignStats warm = run_campaign(/*base_seed=*/9, /*n_cases=*/48, options);
  expect_clean(warm);
  EXPECT_EQ(warm.store_checked, cold.store_checked);
  EXPECT_GT(warm.store_disk_hits, 0u);
  EXPECT_EQ(warm.store_disk_hits, warm.store_checked);
  // The summary line surfaces the store pass for CI logs.
  EXPECT_NE(warm.summary().find("store pass"), std::string::npos);
}

TEST_F(FaultCampaignTest, UnopenableStoreDirectoryIsAStructuredFailure) {
  CampaignOptions options;
  options.store_dir = "/proc/definitely-not-writable/store";
  const CampaignStats stats = run_campaign(/*base_seed=*/3, /*n_cases=*/4, options);
  EXPECT_FALSE(stats.clean());
  ASSERT_FALSE(stats.failures.empty());
  EXPECT_EQ(stats.failures.front().original.name, "store-open");
}

}  // namespace
}  // namespace msys::fuzzing
