// The tentpole robustness gate: hundreds of seeded adversarial
// applications through every scheduler, cross-checked three ways
// (validator clean, simulator fault-free, cost model cycle-exact), with
// infeasibility only ever surfacing as structured diagnostics.
#include "msys/fuzzing/fuzzing.hpp"

#include <gtest/gtest.h>

#include "msys/appdsl/parser.hpp"

namespace msys::fuzzing {
namespace {

TEST(FuzzCaseGen, Deterministic) {
  for (std::uint64_t seed : {0ULL, 7ULL, 123ULL, 999ULL}) {
    const FuzzCase a = make_case(seed);
    const FuzzCase b = make_case(seed);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.text, b.text);
  }
}

TEST(FuzzCaseGen, CoversEveryScenarioClass) {
  // Seeds 0..7 hit each class once; every generated text either parses or
  // is a deliberate parser-diagnostics case.
  for (std::uint64_t seed = 0; seed < kScenarioClasses; ++seed) {
    const FuzzCase c = make_case(seed);
    EXPECT_FALSE(c.text.empty() && seed % kScenarioClasses != 7) << c.name;
    const appdsl::ParseResult parsed = appdsl::parse_collect(c.text, c.name);
    if (!parsed.ok()) {
      EXPECT_EQ(seed % kScenarioClasses, 7u) << c.name << " should have parsed";
    }
  }
}

TEST(FuzzHarness, SingleCaseRunsClean) {
  const CaseResult r = run_case(make_case(0));  // the control class
  EXPECT_TRUE(r.parse_ok);
  EXPECT_TRUE(r.clean()) << r.failures.front().scheduler << " "
                         << r.failures.front().kind << ": "
                         << r.failures.front().detail;
  EXPECT_EQ(r.feasible_schedulers, 3);
  EXPECT_TRUE(r.fallback_feasible);
  EXPECT_EQ(r.fallback_rung, "CDS");
}

// The CI gate from the issue: >= 500 seeded adversarial cases, zero
// validator violations, zero simulator faults, cycle-exact cost agreement,
// and every infeasible input resolving into structured diagnostics.
TEST(FuzzHarness, CampaignOf500IsClean) {
  const CampaignStats stats = run_campaign(/*base_seed=*/1, /*n_cases=*/520);
  SCOPED_TRACE(stats.summary());
  EXPECT_EQ(stats.cases, 520u);
  for (const CampaignFailure& f : stats.failures) {
    ADD_FAILURE() << f.original.name << " ["
                  << f.result.failures.front().scheduler << " "
                  << f.result.failures.front().kind << ": "
                  << f.result.failures.front().detail << "]\nminimized repro:\n"
                  << f.shrunk_mapp;
  }
  EXPECT_TRUE(stats.clean());
  // The campaign must actually exercise the adversarial regimes, not just
  // the happy path.
  EXPECT_GT(stats.parse_rejected, 0u) << "no malformed texts were generated";
  EXPECT_GT(stats.infeasible, 0u) << "no case was machine-infeasible";
  EXPECT_GT(stats.all_feasible, 0u) << "no case was fully feasible";
}

// Parallel campaigns must be bit-for-bit equal to the serial run: same
// counters, same failure list, same summary text, whatever the worker
// count.  (The engine computes cases in parallel but folds the stats in
// seed order — see fuzzing.cpp.)
TEST(FuzzHarness, ParallelCampaignIsByteIdenticalToSerial) {
  const CampaignStats serial = run_campaign(/*base_seed=*/77, /*n_cases=*/96);
  for (unsigned threads : {2u, 4u}) {
    CampaignOptions options;
    options.n_threads = threads;
    const CampaignStats parallel = run_campaign(77, 96, options);
    EXPECT_EQ(parallel.cases, serial.cases);
    EXPECT_EQ(parallel.parse_rejected, serial.parse_rejected);
    EXPECT_EQ(parallel.infeasible, serial.infeasible);
    EXPECT_EQ(parallel.all_feasible, serial.all_feasible);
    EXPECT_EQ(parallel.summary(), serial.summary());
    ASSERT_EQ(parallel.failures.size(), serial.failures.size());
    for (std::size_t i = 0; i < serial.failures.size(); ++i) {
      EXPECT_EQ(parallel.failures[i].original.name, serial.failures[i].original.name);
      EXPECT_EQ(parallel.failures[i].shrunk_mapp, serial.failures[i].shrunk_mapp);
    }
  }
}

TEST(FuzzShrink, ReducesToMinimalCaseUnderTrivialPredicate) {
  const FuzzCase c = make_case(0);  // control class: several clusters
  // Keep anything that still parses with at least one kernel: the shrinker
  // should drive this to a single tiny kernel.
  const Predicate parses = [](const std::string& text) {
    return appdsl::parse_collect(text).ok();
  };
  const std::string shrunk = shrink_text(c.text, parses);
  const appdsl::ParseResult parsed = appdsl::parse_collect(shrunk);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.experiment->app.kernel_count(), 1u);
  EXPECT_EQ(parsed.experiment->app.total_iterations(), 1u);
  EXPECT_LT(shrunk.size(), c.text.size());
}

TEST(FuzzShrink, PreservesPredicateSpecificStructure) {
  const FuzzCase c = make_case(0);
  // Keep only texts whose application still has >= 2 clusters; the result
  // must sit exactly at that boundary.
  const Predicate two_clusters = [](const std::string& text) {
    const appdsl::ParseResult parsed = appdsl::parse_collect(text);
    return parsed.ok() && parsed.experiment->partition.size() >= 2;
  };
  const std::string shrunk = shrink_text(c.text, two_clusters);
  const appdsl::ParseResult parsed = appdsl::parse_collect(shrunk);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.experiment->partition.size(), 2u);
}

TEST(FuzzShrink, ReturnsInputWhenPredicateFailsUpFront) {
  const Predicate never = [](const std::string&) { return false; };
  EXPECT_EQ(shrink_text("app x iterations 1\n", never), "app x iterations 1\n");
}

}  // namespace
}  // namespace msys::fuzzing
