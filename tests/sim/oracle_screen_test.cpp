// Differential screen: the CDS schedule of every seed in two
// random-workload ranges must pass sim::cross_check.  A cost-model bug
// that hits one schedule in a few thousand survives the small random
// property tests; this sweep is sized to catch that rate.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "testing/oracle.hpp"

namespace msys::testing {
namespace {

std::string screen(workloads::RandomSpec (*spec_of)(std::uint64_t), std::uint64_t lo,
                   std::uint64_t hi) {
  std::string failures;
  for (std::uint64_t seed = lo; seed < hi; ++seed) {
    const sim::CrossCheck check = cds_cross_check(spec_of(seed));
    if (!check.ok()) failures += "seed " + std::to_string(seed) + ": " + check.why() + '\n';
  }
  return failures;
}

TEST(OracleScreen, FamilySeeds) {
  EXPECT_EQ(screen(family_spec, 100000, 104000), "");
}

TEST(OracleScreen, LargeSeeds) {
  EXPECT_EQ(screen(large_spec, 300000, 301500), "");
}

}  // namespace
}  // namespace msys::testing
