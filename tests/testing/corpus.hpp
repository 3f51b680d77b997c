// The checked-in fuzz corpus (tests/fuzzing/corpus/*.mapp) as parsed
// scenarios, for property tests that replay it.  Needs
// MSYS_FUZZ_CORPUS_DIR defined for the test target.
#pragma once

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "msys/appdsl/parser.hpp"
#include "msys/arch/m1.hpp"
#include "msys/model/schedule.hpp"

namespace msys::testing {

/// One parsed scenario.  The schedule holds a non-owning pointer into the
/// experiment's Application, so the experiment lives behind a unique_ptr
/// (stable address across vector growth and moves).
struct ParsedCase {
  std::string name;
  std::unique_ptr<appdsl::ParsedExperiment> experiment;
  model::KernelSchedule sched;
  arch::M1Config cfg;
};

/// Appends `text` to `cases` when it parses to an experiment with a kernel
/// schedule; skips it otherwise.
inline void add_parsed_case(std::vector<ParsedCase>& cases, const std::string& name,
                            const std::string& text) {
  appdsl::ParseResult parsed = appdsl::parse_collect(text, name);
  if (!parsed.ok() || parsed.experiment->partition.empty()) return;
  auto experiment = std::make_unique<appdsl::ParsedExperiment>(std::move(*parsed.experiment));
  model::KernelSchedule sched = experiment->schedule();
  const arch::M1Config cfg = experiment->cfg;
  cases.push_back(ParsedCase{name, std::move(experiment), std::move(sched), cfg});
}

/// Every corpus file that parses to a schedule, in file-name order.
inline std::vector<ParsedCase> corpus_cases() {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(MSYS_FUZZ_CORPUS_DIR)) {
    if (entry.path().extension() == ".mapp") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<ParsedCase> cases;
  for (const fs::path& path : files) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    add_parsed_case(cases, path.filename().string(), text.str());
  }
  return cases;
}

}  // namespace msys::testing
