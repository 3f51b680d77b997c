// SimReport byte-identity against a committed golden file.
//
// The predicted == simulated suites compare only the fields the cost model
// also predicts.  This suite pins everything else the simulator decides:
// all 13 SimReport fields, peak FB residency per set, peak CM words and the
// release count included.
//
// Cases: the shared golden case set (testing/golden_cases.hpp).
//
// Regenerating the golden file (only when an intentional change to the
// simulator's output is being shipped): run sim_test with
// MSYS_WRITE_GOLDEN set to the path of tests/sim/golden/sim_reports.tsv.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "msys/common/hash.hpp"
#include "msys/sim/simulator.hpp"
#include "testing/golden_cases.hpp"

namespace msys::sim {
namespace {

std::string report_hash(const SimReport& r) {
  Hasher h;
  for (const std::uint64_t v :
       {r.total.value(), r.compute.value(), r.stall.value(), r.dma_busy.value(),
        r.data_words_loaded, r.data_words_stored, r.context_words, r.dma_requests,
        r.exec_count, r.release_count, r.max_resident_words[0], r.max_resident_words[1],
        std::uint64_t{r.max_cm_words}}) {
    h.update_u64(v);
  }
  return testing::hex(h.finalize());
}

/// The report hash, or the reason the case never reached a completed
/// simulation.
std::string simulate(const testing::GoldenCase& c, const dsched::DataSchedulerBase& scheduler) {
  std::string status;
  const std::unique_ptr<testing::LoweredCase> lowered = testing::lower_case(c, scheduler, status);
  if (!lowered) return status;
  const Simulator::Outcome outcome = Simulator(c.cfg, lowered->plan).try_run(lowered->program);
  if (!outcome.ok()) return "sim-fault: " + outcome.diagnostics.front().message;
  return report_hash(*outcome.report);
}

TEST(SimGolden, ReportsMatchCommittedGolden) {
  const std::vector<testing::GoldenCase> cases = testing::golden_cases(MSYS_FUZZ_CORPUS_DIR);
  ASSERT_GE(cases.size(), 20u);
  const auto schedulers = testing::golden_schedulers();

  testing::GoldenTable current;
  for (const testing::GoldenCase& c : cases) {
    for (const auto& [sname, scheduler] : schedulers) {
      current.emplace(std::make_pair(c.name, sname), simulate(c, *scheduler));
    }
  }

  if (const char* write_path = std::getenv("MSYS_WRITE_GOLDEN")) {
    if (std::string(write_path).ends_with("sim_reports.tsv")) {
      ASSERT_TRUE(testing::write_golden(write_path,
                                        "case\tscheduler\treport-hash\t— see "
                                        "sim_golden_test.cpp; regenerate only with an "
                                        "intentional output change",
                                        current))
          << write_path;
      GTEST_SKIP() << "golden file rewritten: " << write_path;
    }
  }

  std::string error;
  const testing::GoldenTable golden = testing::read_golden(MSYS_SIM_GOLDEN_FILE, error);
  ASSERT_EQ(error, "");
  std::size_t simulated = 0;
  for (const auto& [key, value] : golden) {
    const auto it = current.find(key);
    ASSERT_NE(it, current.end()) << "golden case disappeared: " << key.first << " / "
                                 << key.second;
    EXPECT_EQ(it->second, value) << key.first << " / " << key.second
                                 << ": simulator output diverged from the committed golden";
    if (value.find_first_not_of("0123456789abcdef") == std::string::npos) ++simulated;
  }
  EXPECT_EQ(golden.size(), current.size())
      << "case set drifted from the golden file; regenerate deliberately";
  EXPECT_GE(simulated, 36u);
}

}  // namespace
}  // namespace msys::sim
