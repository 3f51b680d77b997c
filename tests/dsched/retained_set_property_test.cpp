// Byte-identity of scheduler output across retained-set representation
// changes, mirroring the shape of rf_search_property_test:
//
//   1. every schedule produced today hashes to the committed golden value
//      recorded with the previous (sorted-vector / unordered_set) retained
//      set implementation — the fixed-width bitset changed *how* membership
//      is tested, never *what* the schedulers emit;
//   2. the Figure-4 walk is independent of the order retained objects were
//      inserted in (the §4 greedy loop inserts in TF order, but the walk
//      must only see the set);
//   3. RetainedSet itself behaves as a set over DataIds (insert / erase /
//      contains / iterate ascending / equality).
//
// Cases: the checked-in fuzz corpus, generated adversarial cases, every
// Table-1 experiment, the shared handwritten test apps, and the bench's
// seeded random workload family.
//
// Regenerating the golden file (only when an intentional output change is
// being shipped): run dsched_test with MSYS_WRITE_GOLDEN set to the path
// of tests/dsched/golden/retained_schedules.tsv.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "msys/appdsl/parser.hpp"
#include "msys/arch/m1.hpp"
#include "msys/common/hash.hpp"
#include "msys/dsched/alloc_driver.hpp"
#include "msys/dsched/schedulers.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/fuzzing/fuzzing.hpp"
#include "msys/workloads/experiments.hpp"
#include "msys/workloads/random.hpp"
#include "testing/apps.hpp"
#include "testing/fingerprint.hpp"

namespace msys::dsched {
namespace {

namespace fs = std::filesystem;

struct Case {
  std::string name;
  /// Owns the application for parsed/built cases (stable address).
  std::unique_ptr<appdsl::ParsedExperiment> parsed;
  std::unique_ptr<model::Application> app;
  model::KernelSchedule sched;
  arch::M1Config cfg;
};

std::vector<Case> gather_cases() {
  std::vector<Case> cases;
  auto add_text = [&](const std::string& name, const std::string& text) {
    appdsl::ParseResult result = appdsl::parse_collect(text, name);
    if (!result.ok() || result.experiment->partition.empty()) return;
    auto parsed =
        std::make_unique<appdsl::ParsedExperiment>(std::move(*result.experiment));
    model::KernelSchedule sched = parsed->schedule();
    const arch::M1Config cfg = parsed->cfg;
    cases.push_back(Case{name, std::move(parsed), nullptr, std::move(sched), cfg});
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
    add_text("corpus/" + path.filename().string(), text.str());
  }
  // Generated adversarial scenarios, every class three times.
  for (std::uint64_t seed = 1; seed <= 3 * fuzzing::kScenarioClasses; ++seed) {
    const fuzzing::FuzzCase c = fuzzing::make_case(seed);
    add_text("gen/" + c.name, c.text);
  }
  // Every Table-1 experiment row.
  for (const std::string& name : workloads::table1_experiment_names()) {
    workloads::Experiment exp = workloads::make_experiment(name);
    cases.push_back(Case{"table1/" + name, nullptr, std::move(exp.app),
                         std::move(exp.sched), exp.cfg});
  }
  // The engine bench's seeded random family (the workloads whose cold
  // compile throughput the tentpole optimises).
  for (std::uint64_t seed : {1000u, 1003u, 1007u, 1011u}) {
    workloads::RandomSpec spec;
    spec.seed = seed;
    spec.min_kernels = 8;
    spec.max_kernels = 14;
    spec.min_iterations = 8;
    spec.max_iterations = 32;
    spec.reuse_percent = 60;
    spec.shared_inputs = 3;
    workloads::RandomExperiment exp = workloads::make_random(spec);
    cases.push_back(Case{"random/" + std::to_string(seed), nullptr,
                         std::move(exp.app), std::move(exp.sched), exp.cfg});
  }
  // Shared handwritten apps.
  {
    testing::TwoClusterApp two = testing::TwoClusterApp::make(/*iterations=*/12);
    cases.push_back(Case{"apps/two-cluster", nullptr, std::move(two.app),
                         std::move(two.sched), testing::test_cfg(512)});
  }
  {
    testing::RetentionApp ret = testing::RetentionApp::make(/*iterations=*/9);
    cases.push_back(Case{"apps/retention", nullptr, std::move(ret.app),
                         std::move(ret.sched), testing::test_cfg(1024)});
  }
  return cases;
}

/// Every scheduler configuration whose output the golden file pins.
std::vector<std::pair<std::string, std::unique_ptr<DataSchedulerBase>>> make_schedulers() {
  std::vector<std::pair<std::string, std::unique_ptr<DataSchedulerBase>>> out;
  out.emplace_back("DS", std::make_unique<DataScheduler>());
  out.emplace_back("CDS", std::make_unique<CompleteDataScheduler>());
  CompleteDataScheduler::Options joint;
  joint.joint_rf_retention = true;
  out.emplace_back("CDS-joint", std::make_unique<CompleteDataScheduler>(joint));
  CompleteDataScheduler::Options decl;
  decl.ranking = CompleteDataScheduler::Options::Ranking::kDeclarationOrder;
  out.emplace_back("CDS-decl", std::make_unique<CompleteDataScheduler>(decl));
  CompleteDataScheduler::Options size_first;
  size_first.ranking = CompleteDataScheduler::Options::Ranking::kSizeFirst;
  out.emplace_back("CDS-size", std::make_unique<CompleteDataScheduler>(size_first));
  CompleteDataScheduler::Options density;
  density.ranking = CompleteDataScheduler::Options::Ranking::kDensity;
  out.emplace_back("CDS-density", std::make_unique<CompleteDataScheduler>(density));
  return out;
}

/// 16-hex-digit stable hash of the full schedule fingerprint.
std::string fingerprint_hash(const DataSchedule& s) {
  Hasher h;
  h.update_bytes(testing::schedule_fingerprint(s));
  std::ostringstream out;
  out << std::hex << h.finalize();
  return out.str();
}

TEST(RetainedSetProperty, GoldenByteIdentity) {
  const std::vector<Case> cases = gather_cases();
  ASSERT_GE(cases.size(), 40u);
  const auto schedulers = make_schedulers();

  // (case, scheduler) -> fingerprint hash; "threw" for structural throws
  // (adversarial cases), which must also stay stable across the refactor.
  std::map<std::pair<std::string, std::string>, std::string> current;
  for (const Case& c : cases) {
    const extract::ScheduleAnalysis analysis(c.sched, c.cfg.cross_set_reads);
    for (const auto& [sname, scheduler] : schedulers) {
      std::string hash;
      try {
        const DataSchedule s = scheduler->schedule(analysis, c.cfg);
        hash = fingerprint_hash(s);
      } catch (const std::exception&) {
        hash = "threw";
      }
      current.emplace(std::make_pair(c.name, sname), std::move(hash));
    }
  }

  if (const char* write_path = std::getenv("MSYS_WRITE_GOLDEN")) {
    std::ofstream out(write_path);
    ASSERT_TRUE(out.good()) << write_path;
    out << "# case\tscheduler\tfingerprint-hash — see "
           "retained_set_property_test.cpp; regenerate only with an "
           "intentional output change\n";
    for (const auto& [key, hash] : current) {
      out << key.first << '\t' << key.second << '\t' << hash << '\n';
    }
    GTEST_SKIP() << "golden file rewritten: " << write_path;
  }

  std::ifstream golden(MSYS_RETAINED_GOLDEN_FILE);
  ASSERT_TRUE(golden.good()) << MSYS_RETAINED_GOLDEN_FILE;
  std::size_t compared = 0;
  std::string line;
  while (std::getline(golden, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::string case_name, scheduler, hash;
    ASSERT_TRUE(std::getline(fields, case_name, '\t') &&
                std::getline(fields, scheduler, '\t') && std::getline(fields, hash))
        << "malformed golden line: " << line;
    const auto it = current.find({case_name, scheduler});
    ASSERT_NE(it, current.end())
        << "golden case disappeared: " << case_name << " / " << scheduler;
    EXPECT_EQ(it->second, hash) << case_name << " / " << scheduler
                                << ": schedule bytes diverged from the committed golden";
    ++compared;
  }
  EXPECT_EQ(compared, current.size())
      << "case set drifted from the golden file; regenerate deliberately";
  EXPECT_GE(compared, 200u);
}

TEST(RetainedSetProperty, WalkIndependentOfInsertionOrder) {
  // plan_round sees only set membership: inserting the retained candidates
  // forward, backward, or with churn (insert+erase+reinsert) must produce
  // byte-identical walks.
  const std::vector<Case> cases = gather_cases();
  int verified = 0;
  for (const Case& c : cases) {
    const extract::ScheduleAnalysis analysis(c.sched, c.cfg.cross_set_reads);
    const auto& candidates = analysis.retention_candidates();
    if (candidates.size() < 2) continue;
    DataSchedule shipped;
    try {
      shipped = CompleteDataScheduler{}.schedule(analysis, c.cfg);
    } catch (const std::exception&) {
      continue;
    }
    if (!shipped.feasible || shipped.retained.size() < 2) continue;

    std::vector<DataId> members;
    for (const DataId d : shipped.retained) members.push_back(d);

    DriverOptions forward;
    forward.rf = shipped.rf;
    for (const DataId d : members) forward.retained.insert(d);
    DriverOptions backward;
    backward.rf = shipped.rf;
    for (auto it = members.rbegin(); it != members.rend(); ++it) {
      backward.retained.insert(*it);
    }
    DriverOptions churned;
    churned.rf = shipped.rf;
    for (const DataId d : members) churned.retained.insert(d);
    churned.retained.erase(members.front());
    churned.retained.insert(members.front());

    const DriverResult a = plan_round(analysis, c.cfg.fb_set_size, forward);
    const DriverResult b = plan_round(analysis, c.cfg.fb_set_size, backward);
    const DriverResult d = plan_round(analysis, c.cfg.fb_set_size, churned);
    ASSERT_TRUE(a.ok) << c.name;
    EXPECT_EQ(testing::plan_fingerprint(a), testing::plan_fingerprint(b)) << c.name;
    EXPECT_EQ(testing::plan_fingerprint(a), testing::plan_fingerprint(d)) << c.name;
    ++verified;
  }
  EXPECT_GE(verified, 3);
}

}  // namespace
}  // namespace msys::dsched
