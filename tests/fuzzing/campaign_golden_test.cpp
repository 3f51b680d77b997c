// Pins the fuzz campaign case by case: for each of the 520 cases of
// run_campaign(1, 520), what parsed, how many paper schedulers fit, the
// fallback chain and its winner's predicted cycles, and how many checks
// failed.  FuzzHarness.CampaignOf500IsClean checks only the totals; this sees a
// single case that moves.
//
// Regenerate only with an intentional change: run fuzzing_test with
// MSYS_WRITE_GOLDEN set to the path of tests/fuzzing/golden/campaign.tsv.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "msys/fuzzing/fuzzing.hpp"
#include "testing/golden_cases.hpp"

namespace msys::fuzzing {
namespace {

TEST(CampaignGolden, EveryCaseMatchesTheGolden) {
  testing::GoldenTable current;
  for (std::uint64_t seed = 1; seed <= 520; ++seed) {
    const FuzzCase c = make_case(seed);
    const CaseResult r = run_case(c);
    current.emplace(std::make_pair(c.name, std::to_string(seed)),
                    std::to_string(r.parse_ok) + '\t' +
                        std::to_string(r.feasible_schedulers) + '\t' +
                        std::to_string(r.fallback_feasible) + '\t' + r.fallback_rung +
                        '\t' + r.fallback_chain + '\t' +
                        std::to_string(r.fallback_total_cycles) + '\t' +
                        std::to_string(r.failures.size()));
  }

  if (const char* write_path = std::getenv("MSYS_WRITE_GOLDEN")) {
    if (std::string(write_path).ends_with("campaign.tsv")) {
      ASSERT_TRUE(testing::write_golden(
          write_path,
          "name\tseed\tparse_ok\tfeasible_schedulers\tfallback_feasible\tfallback_rung\t"
          "fallback_chain\tfallback_total_cycles\tfailures\t— see campaign_golden_test.cpp; "
          "regenerate only with an intentional output change",
          current))
          << write_path;
      GTEST_SKIP() << "golden file rewritten: " << write_path;
    }
  }

  std::string error;
  const testing::GoldenTable golden = testing::read_golden(MSYS_CAMPAIGN_GOLDEN, error);
  ASSERT_EQ(error, "");
  EXPECT_EQ(golden.size(), current.size());
  for (const auto& [key, value] : current) {
    const auto it = golden.find(key);
    if (it == golden.end()) {
      ADD_FAILURE() << key.first << ": missing from the golden";
    } else {
      EXPECT_EQ(value, it->second) << key.first;
    }
  }
}

}  // namespace
}  // namespace msys::fuzzing
