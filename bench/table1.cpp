// Regenerates the paper's Table 1: all twelve experiments through the
// Basic, Data and Complete Data Schedulers, reporting N, n, DS, DT, RF,
// FB and the relative execution improvements.  An extra MPEG(1K) row
// demonstrates the paper's prose observation that the Basic Scheduler
// cannot execute MPEG in a 1K frame-buffer set.
#include <iostream>

#include "msys/report/tables.hpp"
#include "msys/workloads/experiments.hpp"

int main() {
  using namespace msys;
  std::vector<report::ExperimentResult> results;
  for (const std::string& name : workloads::table1_experiment_names()) {
    const workloads::Experiment exp = workloads::make_experiment(name);
    results.push_back(report::run_experiment(exp.name, exp.sched, exp.cfg));
  }
  const workloads::Experiment mpeg_1k = workloads::make_mpeg(kilowords(1));
  results.push_back(report::run_experiment("MPEG(1K)", mpeg_1k.sched, mpeg_1k.cfg));

  std::cout << "Table 1. experimental results\n\n";
  report::table1(results).print(std::cout);
  std::cout << "\nScheduler detail (cycles, traffic)\n\n";
  report::detail_table(results).print(std::cout);
  return 0;
}
