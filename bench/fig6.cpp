// Regenerates the paper's Figure 6: relative execution improvement of the
// Complete Data Scheduler (first bar) and the Data Scheduler (second bar)
// over the Basic Scheduler, for all twelve experiments.
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

  std::cout << "Figure 6. Relative execution improvement (%)\n\n";
  std::cout << report::fig6_ascii(results) << '\n';
  report::fig6(results).print(std::cout);
  return 0;
}
