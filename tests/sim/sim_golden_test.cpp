// SimReport byte-identity against a committed golden file.
//
// The predicted == simulated suites compare only the fields the cost model
// also predicts.  This suite pins everything else the simulator decides:
// all 13 SimReport fields (peak FB residency per set, peak CM words and the
// release count included) and the exact order in which the functional pass
// fires the on_load / on_exec / on_store data hooks, which is the
// simulated-time event order rcarray::FunctionalMachine depends on.
//
// Cases: every Table-1 row and every checked-in fuzz corpus repro, each
// under the Basic, DS and CDS schedulers, plus the generated adversarial
// scenarios (every class three times) and a few members of the seeded
// random family (hundreds of ops per program).  Cases that do not reach the
// simulator (parse rejects, infeasible schedules) are pinned as such.
//
// Regenerating the golden file (only when an intentional change to the
// simulator's output is being shipped): run sim_test with
// MSYS_WRITE_GOLDEN set to the path of tests/sim/golden/sim_reports.tsv.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "msys/appdsl/parser.hpp"
#include "msys/codegen/program.hpp"
#include "msys/common/hash.hpp"
#include "msys/csched/context_plan.hpp"
#include "msys/dsched/schedulers.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/fuzzing/fuzzing.hpp"
#include "msys/sim/simulator.hpp"
#include "msys/workloads/experiments.hpp"
#include "msys/workloads/random.hpp"

namespace msys::sim {
namespace {

namespace fs = std::filesystem;

struct Case {
  std::string name;
  std::unique_ptr<appdsl::ParsedExperiment> parsed;  // owns parsed apps
  std::unique_ptr<model::Application> app;           // owns built apps
  std::optional<model::KernelSchedule> sched;        // absent: parse rejected
  arch::M1Config cfg;
};

std::vector<Case> gather_cases() {
  std::vector<Case> cases;
  for (const std::string& name : workloads::table1_experiment_names()) {
    workloads::Experiment exp = workloads::make_experiment(name);
    cases.push_back(Case{"table1/" + name, nullptr, std::move(exp.app),
                         std::move(exp.sched), exp.cfg});
  }
  auto add_text = [&](const std::string& name, const std::string& text) {
    appdsl::ParseResult result = appdsl::parse_collect(text, name);
    if (!result.ok() || result.experiment->partition.empty()) {
      cases.push_back(Case{name, nullptr, nullptr, std::nullopt, {}});
      return;
    }
    auto parsed = std::make_unique<appdsl::ParsedExperiment>(std::move(*result.experiment));
    model::KernelSchedule sched = parsed->schedule();
    const arch::M1Config cfg = parsed->cfg;
    cases.push_back(Case{name, std::move(parsed), nullptr, std::move(sched), cfg});
  };
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
    cases.push_back(Case{"random/" + std::to_string(seed), nullptr, std::move(exp.app),
                         std::move(exp.sched), exp.cfg});
  }
  return cases;
}

std::string hex(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex << v;
  return out.str();
}

std::string report_hash(const SimReport& r) {
  Hasher h;
  for (const std::uint64_t v :
       {r.total.value(), r.compute.value(), r.stall.value(), r.dma_busy.value(),
        r.data_words_loaded, r.data_words_stored, r.context_words, r.dma_requests,
        r.exec_count, r.release_count, r.max_resident_words[0], r.max_resident_words[1],
        std::uint64_t{r.max_cm_words}}) {
    h.update_u64(v);
  }
  return hex(h.finalize());
}

void hash_op(Hasher& h, std::uint64_t tag, const codegen::Op& op) {
  h.update_u64(tag);
  h.update_u64(static_cast<std::uint64_t>(op.kind));
  h.update_u64(op.slot);
  h.update_u64(op.kernel.index());
  h.update_u64(op.cluster.index());
  h.update_u64(op.data.index());
  h.update_u64(op.iter);
}

/// "<report-hash>\t<hook-sequence-hash>", or the reason the case never
/// reached a completed simulation.
std::string simulate(const Case& c, const dsched::DataSchedulerBase& scheduler) {
  if (!c.sched) return "parse-rejected\t-";
  const extract::ScheduleAnalysis analysis(*c.sched, c.cfg.cross_set_reads);
  dsched::DataSchedule schedule;
  try {
    schedule = scheduler.schedule(analysis, c.cfg);
  } catch (const std::exception&) {
    return "threw\t-";
  }
  const csched::ContextPlan plan = csched::ContextPlan::build(*c.sched, c.cfg.cm_capacity_words);
  if (!schedule.feasible || !plan.feasible()) return "infeasible\t-";
  const codegen::ScheduleProgram program = codegen::generate(schedule, plan);

  Hasher hooks;
  DataHooks data_hooks;
  data_hooks.on_load = [&](const codegen::Op& op, std::uint32_t round) {
    hash_op(hooks, 0, op);
    hooks.update_u64(round);
  };
  data_hooks.on_exec = [&](const codegen::Op& op, const codegen::Slot& slot) {
    hash_op(hooks, 1, op);
    hooks.update_u64(slot.round);
  };
  data_hooks.on_store = [&](const codegen::Op& op, std::uint32_t round) {
    hash_op(hooks, 2, op);
    hooks.update_u64(round);
  };
  Simulator simulator(c.cfg, plan);
  simulator.set_data_hooks(std::move(data_hooks));
  const Simulator::Outcome outcome = simulator.try_run(program);
  if (!outcome.ok()) return "sim-fault\t" + outcome.diagnostics.front().message;
  return report_hash(*outcome.report) + '\t' + hex(hooks.finalize());
}

TEST(SimGolden, ReportsAndHookOrderMatchCommittedGolden) {
  const std::vector<Case> cases = gather_cases();
  ASSERT_GE(cases.size(), 20u);
  std::vector<std::pair<std::string, std::unique_ptr<dsched::DataSchedulerBase>>> schedulers;
  schedulers.emplace_back("Basic", std::make_unique<dsched::BasicScheduler>());
  schedulers.emplace_back("DS", std::make_unique<dsched::DataScheduler>());
  schedulers.emplace_back("CDS", std::make_unique<dsched::CompleteDataScheduler>());

  std::map<std::pair<std::string, std::string>, std::string> current;
  for (const Case& c : cases) {
    for (const auto& [sname, scheduler] : schedulers) {
      current.emplace(std::make_pair(c.name, sname), simulate(c, *scheduler));
    }
  }

  if (const char* write_path = std::getenv("MSYS_WRITE_GOLDEN")) {
    std::ofstream out(write_path);
    ASSERT_TRUE(out.good()) << write_path;
    out << "# case\tscheduler\treport-hash\thook-sequence-hash — see "
           "sim_golden_test.cpp; regenerate only with an intentional output change\n";
    for (const auto& [key, value] : current) {
      out << key.first << '\t' << key.second << '\t' << value << '\n';
    }
    GTEST_SKIP() << "golden file rewritten: " << write_path;
  }

  std::ifstream golden(MSYS_SIM_GOLDEN_FILE);
  ASSERT_TRUE(golden.good()) << MSYS_SIM_GOLDEN_FILE;
  std::size_t compared = 0;
  std::size_t simulated = 0;
  std::string line;
  while (std::getline(golden, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::string case_name, scheduler, value;
    ASSERT_TRUE(std::getline(fields, case_name, '\t') &&
                std::getline(fields, scheduler, '\t') && std::getline(fields, value))
        << "malformed golden line: " << line;
    const auto it = current.find({case_name, scheduler});
    ASSERT_NE(it, current.end()) << "golden case disappeared: " << case_name << " / "
                                 << scheduler;
    EXPECT_EQ(it->second, value) << case_name << " / " << scheduler
                                 << ": simulator output diverged from the committed golden";
    if (value.find('-') == std::string::npos) ++simulated;
    ++compared;
  }
  EXPECT_EQ(compared, current.size())
      << "case set drifted from the golden file; regenerate deliberately";
  EXPECT_GE(simulated, 36u);
}

}  // namespace
}  // namespace msys::sim
