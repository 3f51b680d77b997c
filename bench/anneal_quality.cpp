// Greedy-vs-annealed schedule quality across the Table-1 suite and a
// synthetic corpus, at several move-budget tiers.
//
//   $ ./build/bench/anneal_quality                      # text tables
//   $ ./build/bench/anneal_quality --budgets 64,256 -j 4
//
// Cycle counts are deterministic — a pure function of (workload, seed,
// islands, budget) — so search_test's AnnealGolden suite pins them exactly
// (tests/search/golden/anneal_quality.tsv, the same cases and options);
// the search's speed is perfbench's `anneal` workload.  Every annealed row
// is re-verified here against the greedy baseline: a row where the annealer
// returns a worse schedule aborts the bench (the never-worse contract is the
// point of the search, not a statistic).
#include <iostream>
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
    std::uint32_t v = 0;
    MSYS_REQUIRE(parse_int(item, v) && v >= 1, "budget tiers must be positive integers");
    budgets.push_back(v);
  }
  MSYS_REQUIRE(!budgets.empty(), "--budgets needs at least one tier");
  return budgets;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::uint32_t> budgets{64, 256, 1024};
  unsigned n_threads = engine::ThreadPool::hardware_threads();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--budgets" && i + 1 < argc) {
      budgets = parse_budgets(argv[++i]);
    } else if (arg == "-j" && i + 1 < argc && parse_int(argv[i + 1], n_threads) &&
               n_threads >= 1) {
      ++i;
    } else {
      std::cerr << "usage: anneal_quality [--budgets a,b,c] [-j N]\n";
      return 1;
    }
  }

  std::vector<BenchCase> cases = gather_cases();
  engine::ThreadPool pool(n_threads);
  search::AnnealOptions base;  // seed/islands defaults are the contract

  for (std::uint32_t budget : budgets) {
    std::vector<report::AnnealRow> table_rows;
    for (const BenchCase& c : cases) {
      const extract::ScheduleAnalysis analysis(c.sched, c.cfg.cross_set_reads);
      search::AnnealOptions options = base;
      options.budget = budget;

      const search::AnnealResult result =
          search::anneal_schedule(analysis, c.cfg, options, &pool);

      MSYS_REQUIRE(result.feasible(), "annealer lost feasibility on " + c.name);
      MSYS_REQUIRE(result.annealed_cycles() <= result.greedy_cycles(),
                   "annealer returned a worse schedule on " + c.name);

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
  return 0;
}
