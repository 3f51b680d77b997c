// Differential properties of the RF search and the plan memo, replayed
// over the fuzz corpus, generated adversarial cases, and the shared test
// apps:
//
//   1. the exponential-probe + binary-search compute_max_rf returns the
//      same RF as the seed's linear scan (both rest on the same
//      monotonicity argument, so any divergence is a bug in one of them);
//   2. the schedule a memoizing scheduler ships is byte-identical to a
//      fresh un-memoized Figure-4 walk at the same (RF, retained set) —
//      the memo can change how often plan_round runs, never what it
//      returns;
//   3. scheduler runs are deterministic (the per-run memo leaks no state
//      across calls).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "msys/appdsl/parser.hpp"
#include "msys/arch/m1.hpp"
#include "msys/dsched/alloc_driver.hpp"
#include "msys/dsched/schedulers.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/fuzzing/fuzzing.hpp"
#include "testing/apps.hpp"
#include "testing/fingerprint.hpp"

namespace msys::dsched {
namespace {

namespace fs = std::filesystem;

/// One parsed scenario.  The schedule holds a non-owning pointer into the
/// experiment's Application, so the experiment lives behind a unique_ptr
/// (stable address across vector growth and Case moves).
struct Case {
  std::string name;
  std::unique_ptr<appdsl::ParsedExperiment> experiment;
  model::KernelSchedule sched;
  arch::M1Config cfg;
};

std::vector<Case> gather_cases() {
  std::vector<Case> cases;
  auto add_text = [&](const std::string& name, const std::string& text) {
    appdsl::ParseResult parsed = appdsl::parse_collect(text, name);
    if (!parsed.ok() || parsed.experiment->partition.empty()) return;
    auto experiment =
        std::make_unique<appdsl::ParsedExperiment>(std::move(*parsed.experiment));
    model::KernelSchedule sched = experiment->schedule();
    const arch::M1Config cfg = experiment->cfg;
    cases.push_back(Case{name, std::move(experiment), std::move(sched), cfg});
  };
  // Checked-in minimized repros.
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(MSYS_FUZZ_CORPUS_DIR)) {
    if (entry.path().extension() == ".mapp") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& path : files) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    add_text(path.filename().string(), text.str());
  }
  // Generated adversarial scenarios: cover every scenario class a few
  // times (kScenarioClasses cycles with the seed).
  for (std::uint64_t seed = 1; seed <= 3 * fuzzing::kScenarioClasses; ++seed) {
    const fuzzing::FuzzCase c = fuzzing::make_case(seed);
    add_text(c.name, c.text);
  }
  return cases;
}

/// The seed implementation: walk RF upward until the first failure.
std::uint32_t linear_max_rf(const extract::ScheduleAnalysis& analysis,
                            const arch::M1Config& cfg, DriverOptions options) {
  const std::uint32_t max_rf = analysis.app().total_iterations();
  std::uint32_t best = 0;
  for (std::uint32_t rf = 1; rf <= max_rf; ++rf) {
    options.rf = rf;
    if (!plan_round(analysis, cfg.fb_set_size, options).ok) break;
    best = rf;
  }
  return best;
}

TEST(RfSearchProperty, BinarySearchMatchesLinearScan) {
  const std::vector<Case> cases = gather_cases();
  ASSERT_GE(cases.size(), 8u);
  int compared = 0;
  for (const Case& c : cases) {
    const extract::ScheduleAnalysis analysis(c.sched, c.cfg.cross_set_reads);
    for (const bool release_at_last_use : {true, false}) {
      DriverOptions options;
      options.release_at_last_use = release_at_last_use;
      const std::uint32_t linear = linear_max_rf(analysis, c.cfg, options);
      const std::uint32_t searched = compute_max_rf(analysis, c.cfg, options);
      EXPECT_EQ(searched, linear)
          << c.name << " release_at_last_use=" << release_at_last_use;
      ++compared;
    }
  }
  EXPECT_GE(compared, 16);
}

TEST(RfSearchProperty, MemoizedScheduleMatchesFreshWalk) {
  // Whatever (RF, retained set) a scheduler settled on, one fresh
  // plan_round at those exact options must reproduce the shipped round
  // plan and placements byte for byte — a memo hit is a recompute.
  const std::vector<Case> cases = gather_cases();
  CompleteDataScheduler::Options joint_opts;
  joint_opts.joint_rf_retention = true;
  const DataScheduler ds;
  const CompleteDataScheduler cds;
  const CompleteDataScheduler cds_joint{joint_opts};
  const std::vector<const DataSchedulerBase*> schedulers = {&ds, &cds, &cds_joint};
  int verified = 0;
  for (const Case& c : cases) {
    const extract::ScheduleAnalysis analysis(c.sched, c.cfg.cross_set_reads);
    for (const DataSchedulerBase* scheduler : schedulers) {
      DataSchedule shipped;
      try {
        shipped = scheduler->schedule(analysis, c.cfg);
      } catch (const std::exception&) {
        continue;  // adversarial cases may fail structurally; not under test
      }
      if (!shipped.feasible) continue;
      DriverOptions options;
      options.rf = shipped.rf;
      options.retained = shipped.retained;
      options.release_at_last_use = true;  // DS and CDS both replace
      const DriverResult fresh = plan_round(analysis, c.cfg.fb_set_size, options);
      ASSERT_TRUE(fresh.ok) << c.name << " " << scheduler->name();
      EXPECT_EQ(testing::plan_fingerprint(shipped.round_plan, shipped.placements),
                testing::plan_fingerprint(fresh))
          << c.name << " " << scheduler->name();
      ++verified;
    }
  }
  EXPECT_GE(verified, 10);
}

TEST(RfSearchProperty, SchedulerRunsAreDeterministic) {
  // The memo lives and dies inside one schedule() call: two runs over the
  // same analysis must agree exactly.
  const std::vector<Case> cases = gather_cases();
  const DataScheduler ds;
  const CompleteDataScheduler cds;
  for (const Case& c : cases) {
    const extract::ScheduleAnalysis analysis(c.sched, c.cfg.cross_set_reads);
    for (const DataSchedulerBase* scheduler :
         {static_cast<const DataSchedulerBase*>(&ds),
          static_cast<const DataSchedulerBase*>(&cds)}) {
      DataSchedule first;
      try {
        first = scheduler->schedule(analysis, c.cfg);
      } catch (const std::exception&) {
        continue;
      }
      const DataSchedule second = scheduler->schedule(analysis, c.cfg);
      EXPECT_EQ(testing::schedule_fingerprint(first), testing::schedule_fingerprint(second))
          << c.name << " " << scheduler->name();
    }
  }
}

TEST(RfSearchProperty, SharedTestAppsAgreeAcrossFbSizes) {
  // The shared handwritten apps at several FB sizes, including sizes small
  // enough that RF=1 fails — the boundary the binary search must not
  // misreport.
  testing::TwoClusterApp two = testing::TwoClusterApp::make(/*iterations=*/12);
  testing::RetentionApp ret = testing::RetentionApp::make(/*iterations=*/9);
  const std::vector<const model::KernelSchedule*> scheds = {&two.sched, &ret.sched};
  for (const model::KernelSchedule* sched : scheds) {
    for (const std::uint64_t fb : {128u, 300u, 512u, 1024u, 4096u, 65536u}) {
      const arch::M1Config cfg = testing::test_cfg(fb);
      const extract::ScheduleAnalysis analysis(*sched, cfg.cross_set_reads);
      DriverOptions options;
      EXPECT_EQ(compute_max_rf(analysis, cfg, options),
                linear_max_rf(analysis, cfg, options))
          << sched->app().name() << " fb=" << fb;
    }
  }
}

}  // namespace
}  // namespace msys::dsched
