// The case set behind the byte-identity goldens of the code generator
// (codegen_test) and the simulator (sim_test), and the one way both lower
// a case to a program.
//
// Cases: every Table-1 row and every checked-in fuzz corpus repro, each
// run under the Basic, DS and CDS schedulers, plus the generated
// adversarial scenarios (every class three times) and a few members of the
// seeded random family (hundreds of ops per program).  Cases that never
// become a program (parse rejects, infeasible schedules) are pinned as
// such.
#pragma once

#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "msys/appdsl/parser.hpp"
#include "msys/codegen/program.hpp"
#include "msys/csched/context_plan.hpp"
#include "msys/dsched/schedulers.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/fuzzing/fuzzing.hpp"
#include "msys/workloads/experiments.hpp"
#include "msys/workloads/random.hpp"

namespace msys::testing {

struct GoldenCase {
  std::string name;
  std::unique_ptr<appdsl::ParsedExperiment> parsed;  // owns parsed apps
  std::unique_ptr<model::Application> app;           // owns built apps
  std::optional<model::KernelSchedule> sched;        // absent: parse rejected
  arch::M1Config cfg;
};

/// Every golden case; `corpus_dir` holds the fuzz corpus `.mapp` files.
inline std::vector<GoldenCase> golden_cases(const std::filesystem::path& corpus_dir) {
  std::vector<GoldenCase> cases;
  for (const std::string& name : workloads::table1_experiment_names()) {
    workloads::Experiment exp = workloads::make_experiment(name);
    cases.push_back(GoldenCase{"table1/" + name, nullptr, std::move(exp.app),
                               std::move(exp.sched), exp.cfg});
  }
  auto add_text = [&](const std::string& name, const std::string& text) {
    appdsl::ParseResult result = appdsl::parse_collect(text, name);
    if (!result.ok() || result.experiment->partition.empty()) {
      cases.push_back(GoldenCase{name, nullptr, nullptr, std::nullopt, {}});
      return;
    }
    auto parsed = std::make_unique<appdsl::ParsedExperiment>(std::move(*result.experiment));
    model::KernelSchedule sched = parsed->schedule();
    const arch::M1Config cfg = parsed->cfg;
    cases.push_back(GoldenCase{name, std::move(parsed), nullptr, std::move(sched), cfg});
  };
  std::vector<std::filesystem::path> files;
  for (const std::filesystem::directory_entry& entry :
       std::filesystem::directory_iterator(corpus_dir)) {
    if (entry.path().extension() == ".mapp") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const std::filesystem::path& path : files) {
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
    cases.push_back(GoldenCase{"random/" + std::to_string(seed), nullptr, std::move(exp.app),
                               std::move(exp.sched), exp.cfg});
  }
  return cases;
}

/// The schedulers every golden case runs under, with the names the golden
/// files use.
inline std::vector<std::pair<std::string, std::unique_ptr<dsched::DataSchedulerBase>>>
golden_schedulers() {
  std::vector<std::pair<std::string, std::unique_ptr<dsched::DataSchedulerBase>>> out;
  out.emplace_back("Basic", std::make_unique<dsched::BasicScheduler>());
  out.emplace_back("DS", std::make_unique<dsched::DataScheduler>());
  out.emplace_back("CDS", std::make_unique<dsched::CompleteDataScheduler>());
  return out;
}

/// One golden case scheduled and lowered to its program.
struct LoweredCase {
  dsched::DataSchedule schedule;
  csched::ContextPlan plan;
  codegen::ScheduleProgram program;  // bound to `schedule`
};

/// Lowers `c` under `scheduler`.  Empty, with `status` set to why
/// ("parse-rejected", "threw" or "infeasible"), when there is no program.
inline std::unique_ptr<LoweredCase> lower_case(const GoldenCase& c,
                                               const dsched::DataSchedulerBase& scheduler,
                                               std::string& status) {
  if (!c.sched) {
    status = "parse-rejected";
    return nullptr;
  }
  const extract::ScheduleAnalysis analysis(*c.sched, c.cfg.cross_set_reads);
  dsched::DataSchedule schedule;
  try {
    schedule = scheduler.schedule(analysis, c.cfg);
  } catch (const std::exception&) {
    status = "threw";
    return nullptr;
  }
  csched::ContextPlan plan = csched::ContextPlan::build(*c.sched, c.cfg.cm_capacity_words);
  if (!schedule.feasible || !plan.feasible()) {
    status = "infeasible";
    return nullptr;
  }
  auto lowered = std::make_unique<LoweredCase>(
      LoweredCase{std::move(schedule), std::move(plan), {}});
  lowered->program = codegen::generate(lowered->schedule, lowered->plan);
  return lowered;
}

/// Golden values keyed by (case name, scheduler name).
using GoldenTable = std::map<std::pair<std::string, std::string>, std::string>;

/// Writes `table` as "<case>\t<scheduler>\t<value>" lines under a `#` header.
inline bool write_golden(const std::string& path, const std::string& header,
                         const GoldenTable& table) {
  std::ofstream out(path);
  out << "# " << header << '\n';
  for (const auto& [key, value] : table) {
    out << key.first << '\t' << key.second << '\t' << value << '\n';
  }
  return out.good();
}

/// Reads a file written by write_golden; a malformed line names itself in
/// `error` and ends the read.
inline GoldenTable read_golden(const std::string& path, std::string& error) {
  GoldenTable table;
  std::ifstream in(path);
  if (!in.good()) error = "cannot open " + path;
  std::string line;
  while (error.empty() && std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::string case_name, scheduler, value;
    if (!std::getline(fields, case_name, '\t') || !std::getline(fields, scheduler, '\t') ||
        !std::getline(fields, value)) {
      error = "malformed golden line: " + line;
    }
    table.emplace(std::make_pair(std::move(case_name), std::move(scheduler)),
                  std::move(value));
  }
  return table;
}

inline std::string hex(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex << v;
  return out.str();
}

}  // namespace msys::testing
