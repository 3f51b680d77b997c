// Extension bench: cross-set reuse (paper §7 future work — "data and
// results reuse among clusters assigned to different sets of the FB when
// the architecture allows it").
//
// Reruns the whole Table-1 registry with arch cross_set_reads enabled and
// reports the additional improvement beyond the paper-machine CDS.
#include <iostream>

#include "msys/common/strfmt.hpp"
#include "msys/common/table.hpp"
#include "msys/report/runner.hpp"
#include "msys/workloads/experiments.hpp"

int main() {
  using namespace msys;
  TextTable table({"Experiment", "CDS cyc", "CDS+xset cyc", "kept", "kept+xset",
                   "data words", "data+xset", "extra gain"});
  for (const std::string& name : workloads::table1_experiment_names()) {
    workloads::Experiment exp = workloads::make_experiment(name);
    report::SchedulerOutcome plain = report::run_scheduler(exp.sched, exp.cfg);
    report::SchedulerOutcome cross =
        report::run_scheduler(exp.sched, exp.cfg.with_cross_set_reads(true));
    if (!plain.feasible() || !cross.feasible()) {
      table.add_row({exp.name, "n/a", "n/a", "-", "-", "-", "-", "-"});
      continue;
    }
    const double gain = 1.0 - static_cast<double>(cross.predicted().total.value()) /
                                  static_cast<double>(plain.predicted().total.value());
    table.add_row({
        exp.name,
        std::to_string(plain.predicted().total.value()),
        std::to_string(cross.predicted().total.value()),
        std::to_string(plain.schedule().retained.size()),
        std::to_string(cross.schedule().retained.size()),
        std::to_string(plain.predicted().data_words_total()),
        std::to_string(cross.predicted().data_words_total()),
        percent(gain),
    });
  }
  std::cout << "Extension: cross-set reuse (the paper's §7 future work)\n\n";
  table.print(std::cout);
  std::cout << "\nCross-set reads let the CDS retain objects whose consumers sit on\n"
               "the other FB set; the biggest wins come from results that previously\n"
               "had to round-trip through external memory for a single cross-set\n"
               "consumer (e.g. MPEG's motion-compensated prediction block).\n";
  return 0;
}
