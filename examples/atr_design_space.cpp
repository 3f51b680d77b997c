// Kernel-schedule design-space exploration on the ATR second-level
// detection application (the paper's ATR-SLD/*/** rows are three points of
// this space).
//
//   $ ./build/examples/atr_design_space
//
// Uses the Kernel Scheduler [7] to enumerate contiguous partitions of the
// kernel order, costing each with the Complete Data Scheduler, and
// compares the best found schedule against the paper-style hand variants.
#include <iostream>

#include "msys/common/strfmt.hpp"
#include "msys/common/table.hpp"
#include "msys/report/runner.hpp"
#include "msys/search/kernel_search.hpp"
#include "msys/workloads/experiments.hpp"

int main() {
  using namespace msys;

  workloads::Experiment base = workloads::make_atr_sld(0);
  std::cout << "application: " << base.app->name() << " ("
            << base.app->kernel_count() << " kernels, "
            << size_kb(base.app->total_data_size()) << " data/iteration)\n";
  std::cout << "machine:     " << base.cfg.summary() << "\n\n";

  // ---- Hand schedules (the paper's three rows). ----
  TextTable table({"Schedule", "Clusters", "CDS cycles", "CDS%", "Kept"});
  for (int variant = 0; variant <= 2; ++variant) {
    workloads::Experiment exp = workloads::make_atr_sld(variant);
    report::ExperimentResult r = report::run_experiment(exp.name, exp.sched, exp.cfg);
    table.add_row({exp.name, std::to_string(exp.sched.cluster_count()),
                   r.cds.feasible() ? std::to_string(r.cds.cycles().value()) : "n/a",
                   r.cds_improvement() ? fixed(*r.cds_improvement() * 100, 0) + "%" : "n/a",
                   std::to_string(r.cds.schedule().retained.size())});
  }

  // ---- Automatic search over contiguous partitions. ----
  search::SearchResult search = search::exhaustive_search(*base.app, base.cfg);
  std::cout << "searched " << search.evaluated << " candidate schedules, "
            << search.feasible_count << " feasible\n\n";
  if (search.found()) {
    report::ExperimentResult r =
        report::run_experiment("searched-best", *search.best, base.cfg);
    table.add_row({"searched-best", std::to_string(search.best->cluster_count()),
                   std::to_string(r.cds.cycles().value()),
                   r.cds_improvement() ? fixed(*r.cds_improvement() * 100, 0) + "%" : "n/a",
                   std::to_string(r.cds.schedule().retained.size())});
    std::cout << "best: " << search.best->summary() << "\n\n";
  }
  table.print(std::cout);
  std::cout << "\nNote: improvements are each relative to the Basic Scheduler on the\n"
               "SAME kernel schedule, so a schedule can have lower absolute cycles\n"
               "yet a smaller percentage.\n";
  return 0;
}
