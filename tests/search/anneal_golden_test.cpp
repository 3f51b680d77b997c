// Annealed schedule quality against a committed golden file.
//
// The cases and options are bench/anneal_quality's: the 12 Table-1 rows
// and the synthetic rand-7/11/19 rows, at move budgets 64/256/1024, seed
// 1, 4 islands.  Every number pinned here is a pure function of (workload,
// seed, islands, budget) — the islands contract makes the result
// independent of the pool size — so the comparison is exact; the bench's
// walltime column is the only measurement and is not pinned.
//
// Regenerating the golden file (only when an intentional change to the
// search or the cost model is being shipped): run search_test with
// MSYS_WRITE_GOLDEN set to the path of tests/search/golden/anneal_quality.tsv
// and --gtest_filter='AnnealGolden.*'.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "msys/extract/analysis.hpp"
#include "msys/search/anneal.hpp"
#include "msys/workloads/experiments.hpp"
#include "msys/workloads/random.hpp"
#include "testing/golden_cases.hpp"

namespace msys::search {
namespace {

struct QualityCase {
  std::string name;
  std::unique_ptr<model::Application> app;
  model::KernelSchedule sched;
  arch::M1Config cfg;
};

/// bench/anneal_quality's case list, in its order.
std::vector<QualityCase> quality_cases() {
  std::vector<QualityCase> cases;
  for (const std::string& name : workloads::table1_experiment_names()) {
    workloads::Experiment exp = workloads::make_experiment(name);
    cases.push_back({exp.name, std::move(exp.app), std::move(exp.sched), exp.cfg});
  }
  for (std::uint64_t seed : {7, 11, 19}) {
    workloads::RandomSpec spec;
    spec.seed = seed;
    spec.min_kernels = 6;
    spec.max_kernels = 10;
    spec.reuse_percent = 40;
    workloads::RandomExperiment exp = workloads::make_random(spec);
    cases.push_back({"rand-" + std::to_string(seed), std::move(exp.app),
                     std::move(exp.sched), exp.cfg});
  }
  return cases;
}

TEST(AnnealGolden, QualityRowsMatchCommittedGolden) {
  const std::vector<QualityCase> cases = quality_cases();
  ASSERT_EQ(cases.size(), 15u);

  testing::GoldenTable current;
  for (std::uint32_t budget : {64u, 256u, 1024u}) {
    for (const QualityCase& c : cases) {
      const extract::ScheduleAnalysis analysis(c.sched, c.cfg.cross_set_reads);
      AnnealOptions options;  // seed 1, 4 islands: the bench's contract
      options.budget = budget;
      const AnnealResult result = anneal_schedule(analysis, c.cfg, options);
      ASSERT_TRUE(result.feasible()) << c.name << " @ " << budget;
      current.emplace(std::make_pair(c.name, std::to_string(budget)),
                      std::to_string(result.greedy_cycles()) + '\t' +
                          std::to_string(result.annealed_cycles()) + '\t' +
                          (result.improved ? "true" : "false") + '\t' +
                          std::to_string(result.winner_island));
    }
  }

  if (const char* write_path = std::getenv("MSYS_WRITE_GOLDEN")) {
    ASSERT_TRUE(testing::write_golden(write_path,
                                      "app\tbudget\tgreedy_cycles\tannealed_cycles\timproved\t"
                                      "winner_island — see anneal_golden_test.cpp; regenerate "
                                      "only with an intentional output change",
                                      current))
        << write_path;
    GTEST_SKIP() << "golden file rewritten: " << write_path;
  }

  std::string error;
  const testing::GoldenTable golden = testing::read_golden(MSYS_ANNEAL_GOLDEN_FILE, error);
  ASSERT_EQ(error, "");
  for (const auto& [key, value] : golden) {
    const auto it = current.find(key);
    ASSERT_NE(it, current.end()) << "golden row disappeared: " << key.first << " @ "
                                 << key.second;
    EXPECT_EQ(it->second, value) << key.first << " @ " << key.second
                                 << ": annealed quality diverged from the committed golden";
  }
  EXPECT_EQ(golden.size(), current.size())
      << "row set drifted from the golden file; regenerate deliberately";
  EXPECT_EQ(golden.size(), 45u);
}

}  // namespace
}  // namespace msys::search
