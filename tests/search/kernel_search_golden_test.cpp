// The kernel search's outcome per input against a committed golden file.
//
// One row per input: kernel count, the size of the shape space (2^(n-1)
// compositions of the topological order), how many shapes the search
// priced and how many were feasible, the winning shape and its predicted
// cycles.  Inputs: every Table-1 experiment's application and machine, the
// example apps, 64 seeded random applications (every fourth on half the FB
// so some shapes do not fit), two random applications of 14-16 kernels and
// a 14-kernel chain, whose 8192 or more shapes send the search down the
// greedy-merge path.  Every field is a pure function of the input, so the
// comparison is exact.
//
// Regenerating the golden file (only when an intentional change to the
// search or the cost model is being shipped): run search_test with
// MSYS_WRITE_GOLDEN set to the path of tests/search/golden/kernel_search.tsv
// and --gtest_filter='KernelSearchGolden.*'.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "msys/appdsl/parser.hpp"
#include "msys/search/kernel_search.hpp"
#include "msys/search/space.hpp"
#include "msys/workloads/experiments.hpp"
#include "msys/workloads/random.hpp"
#include "testing/apps.hpp"
#include "testing/golden_cases.hpp"

namespace msys::search {
namespace {

struct SearchCase {
  std::string name;
  std::shared_ptr<const model::Application> app;
  arch::M1Config cfg;
};

std::vector<SearchCase> search_cases() {
  std::vector<SearchCase> cases;
  for (const std::string& name : workloads::table1_experiment_names()) {
    workloads::Experiment exp = workloads::make_experiment(name);
    cases.push_back({"table1/" + name, std::move(exp.app), exp.cfg});
  }
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(MSYS_APPS_DIR)) {
    if (entry.path().extension() == ".mapp") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const std::filesystem::path& path : files) {
    appdsl::ParseResult parsed = appdsl::parse_file_collect(path.string());
    if (!parsed.ok()) continue;
    cases.push_back({"apps/" + path.filename().string(),
                     std::make_shared<model::Application>(std::move(parsed.experiment->app)),
                     parsed.experiment->cfg});
  }
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    workloads::RandomSpec spec;
    spec.seed = seed;
    spec.min_kernels = 1;
    spec.max_kernels = 11;
    spec.reuse_percent = 40;
    if (seed % 4 == 0) spec.fb_scale_percent = 50;
    workloads::RandomExperiment exp = workloads::make_random(spec);
    cases.push_back({"random/" + std::to_string(seed), std::move(exp.app), exp.cfg});
  }
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    workloads::RandomSpec spec;
    spec.seed = seed;
    spec.min_kernels = 14;
    spec.max_kernels = 16;
    spec.reuse_percent = 40;
    workloads::RandomExperiment exp = workloads::make_random(spec);
    cases.push_back({"wide/" + std::to_string(seed), std::move(exp.app), exp.cfg});
  }
  cases.push_back({"chain/14", std::make_shared<model::Application>(testing::chain_app(14)),
                   testing::test_cfg(1024)});
  return cases;
}

std::string join(const Shape& shape) {
  std::string out;
  for (const std::uint32_t size : shape) {
    if (!out.empty()) out += ',';
    out += std::to_string(size);
  }
  return out;
}

TEST(KernelSearchGolden, OutcomesMatchCommittedGolden) {
  const std::vector<SearchCase> cases = search_cases();
  testing::GoldenTable current;
  for (const SearchCase& c : cases) {
    const std::size_t n = c.app->kernel_count();
    const SearchResult result = find_best_schedule(*c.app, c.cfg);
    current.emplace(std::make_pair(c.name, std::to_string(n)),
                    std::to_string(space_size(n)) + '\t' + std::to_string(result.evaluated) +
                        '\t' + std::to_string(result.feasible_count) + '\t' +
                        (result.found() ? join(shape_of(*result.best)) : "-") + '\t' +
                        (result.found() ? std::to_string(result.best_cycles.value()) : "-"));
  }

  if (const char* write_path = std::getenv("MSYS_WRITE_GOLDEN")) {
    if (std::string(write_path).ends_with("kernel_search.tsv")) {
      ASSERT_TRUE(testing::write_golden(write_path,
                                        "input\tn\tspace_size\tevaluated\tfeasible\tbest_shape\t"
                                        "best_cycles — see kernel_search_golden_test.cpp; "
                                        "regenerate only with an intentional output change",
                                        current))
          << write_path;
      GTEST_SKIP() << "golden file rewritten: " << write_path;
    }
  }

  std::string error;
  const testing::GoldenTable golden = testing::read_golden(MSYS_KERNEL_SEARCH_GOLDEN_FILE, error);
  ASSERT_EQ(error, "");
  for (const auto& [key, value] : golden) {
    const auto it = current.find(key);
    ASSERT_NE(it, current.end()) << "golden row disappeared: " << key.first;
    EXPECT_EQ(it->second, value) << key.first
                                 << ": kernel search diverged from the committed golden";
  }
  EXPECT_EQ(golden.size(), current.size())
      << "row set drifted from the golden file; regenerate deliberately";
}

}  // namespace
}  // namespace msys::search
