// Greedy-vs-annealed schedule quality across the Table-1 suite and a
// synthetic corpus, at several move-budget tiers.
//
//   $ ./build/bench/anneal_quality                      # text tables
//   $ ./build/bench/anneal_quality --json BENCH_anneal.json
//   $ ./build/bench/anneal_quality --budgets 64,256 -j 4
//
// Cycle counts are deterministic — a pure function of (workload, seed,
// islands, budget) — so search_test's AnnealGolden suite pins them exactly
// (tests/search/golden/anneal_quality.tsv, the same cases and options);
// only the per-row walltime is a measurement.  Every annealed row is re-verified
// here against the greedy baseline: a row where the annealer returns a
// worse schedule aborts the bench (the never-worse contract is the point
// of the search, not a statistic).
#include <chrono>
#include <iostream>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "msys/common/error.hpp"
#include "msys/common/strfmt.hpp"
#include "msys/engine/thread_pool.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/report/tables.hpp"
#include "msys/search/anneal.hpp"
#include "msys/workloads/experiments.hpp"
#include "msys/workloads/random.hpp"

namespace {

using namespace msys;

struct BenchCase {
  std::string name;
  std::unique_ptr<model::Application> app;
  model::KernelSchedule sched;
  arch::M1Config cfg;
};

struct BenchRow {
  std::string app;
  std::uint32_t budget{0};
  std::uint64_t greedy_cycles{0};
  std::uint64_t annealed_cycles{0};
  std::uint64_t cycles_saved{0};
  bool improved{false};
  std::uint32_t winner_island{0};
  double walltime_ms{0.0};
};

std::vector<BenchCase> gather_cases() {
  std::vector<BenchCase> cases;
  for (const std::string& name : workloads::table1_experiment_names()) {
    workloads::Experiment exp = workloads::make_experiment(name);
    cases.push_back({exp.name, std::move(exp.app), std::move(exp.sched), exp.cfg});
  }
  // Synthetic rows: denser reuse than the paper suite, so the retained-set
  // and partition moves have more room to differ from greedy.
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

std::vector<std::uint32_t> parse_budgets(const std::string& list) {
  std::vector<std::uint32_t> budgets;
  std::stringstream in(list);
  std::string item;
  while (std::getline(in, item, ',')) {
    const int v = std::stoi(item);
    MSYS_REQUIRE(v >= 1, "budget tiers must be positive");
    budgets.push_back(static_cast<std::uint32_t>(v));
  }
  MSYS_REQUIRE(!budgets.empty(), "--budgets needs at least one tier");
  return budgets;
}

void write_json(const std::string& path, const search::AnnealOptions& base,
                const std::vector<BenchRow>& rows) {
  std::ofstream out(path);
  MSYS_REQUIRE(out.good(), "cannot open JSON output file");
  out << "{\n";
  out << "  \"bench\": \"anneal_quality\",\n";
  out << "  \"seed\": " << base.seed << ",\n";
  out << "  \"islands\": " << base.islands << ",\n";
  out << "  \"hardware_threads\": " << engine::ThreadPool::hardware_threads() << ",\n";
  out << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    out << "    {\"app\": \"" << r.app << "\", \"budget\": " << r.budget
        << ", \"greedy_cycles\": " << r.greedy_cycles
        << ", \"annealed_cycles\": " << r.annealed_cycles
        << ", \"cycles_saved\": " << r.cycles_saved
        << ", \"improved\": " << (r.improved ? "true" : "false")
        << ", \"winner_island\": " << r.winner_island << ", \"walltime_ms\": "
        << fixed(r.walltime_ms, 3) << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<std::uint32_t> budgets{64, 256, 1024};
  unsigned n_threads = engine::ThreadPool::hardware_threads();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--budgets" && i + 1 < argc) {
      budgets = parse_budgets(argv[++i]);
    } else if (arg == "-j" && i + 1 < argc) {
      n_threads = static_cast<unsigned>(std::stoi(argv[++i]));
    } else {
      std::cerr << "usage: anneal_quality [--json <path>] [--budgets a,b,c] [-j N]\n";
      return 1;
    }
  }

  std::vector<BenchCase> cases = gather_cases();
  engine::ThreadPool pool(n_threads);
  search::AnnealOptions base;  // seed/islands defaults are the contract

  std::vector<BenchRow> rows;
  for (std::uint32_t budget : budgets) {
    std::vector<report::AnnealRow> table_rows;
    for (const BenchCase& c : cases) {
      const extract::ScheduleAnalysis analysis(c.sched, c.cfg.cross_set_reads);
      search::AnnealOptions options = base;
      options.budget = budget;

      const auto start = std::chrono::steady_clock::now();
      const search::AnnealResult result =
          dsched::schedule_annealed(analysis, c.cfg, options, &pool);
      const auto elapsed = std::chrono::steady_clock::now() - start;

      MSYS_REQUIRE(result.feasible(), "annealer lost feasibility on " + c.name);
      MSYS_REQUIRE(result.annealed_cycles() <= result.greedy_cycles(),
                   "annealer returned a worse schedule on " + c.name);

      BenchRow row;
      row.app = c.name;
      row.budget = budget;
      row.greedy_cycles = result.greedy_cycles();
      row.annealed_cycles = result.annealed_cycles();
      row.cycles_saved = result.cycles_saved();
      row.improved = result.improved;
      row.winner_island = result.winner_island;
      row.walltime_ms =
          std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(elapsed)
              .count();
      rows.push_back(row);

      report::AnnealRow tr;
      tr.name = c.name;
      tr.greedy_cycles = result.greedy_cycles();
      tr.annealed_cycles = result.annealed_cycles();
      tr.greedy_rf = result.greedy.rf;
      tr.annealed_rf = result.schedule.rf;
      tr.greedy_retained = static_cast<std::uint32_t>(result.greedy.retained.size());
      tr.annealed_retained = static_cast<std::uint32_t>(result.schedule.retained.size());
      tr.greedy_clusters = static_cast<std::uint32_t>(result.greedy.sched->cluster_count());
      tr.annealed_clusters =
          static_cast<std::uint32_t>(result.schedule.sched->cluster_count());
      tr.improved = result.improved;
      table_rows.push_back(tr);
    }
    std::cout << "budget " << budget << " (" << base.islands << " islands, seed "
              << base.seed << ")\n\n";
    report::anneal_table(table_rows).print(std::cout);
    std::cout << '\n';
  }

  if (!json_path.empty()) {
    write_json(json_path, base, rows);
    std::cout << "wrote " << json_path << '\n';
  }
  return 0;
}
