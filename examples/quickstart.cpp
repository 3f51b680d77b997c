// Quickstart: build a four-kernel application, schedule it with all three
// data schedulers, and execute the result on the M1 simulator.
//
//   $ ./build/examples/quickstart
//
// The application is a tiny two-stage filter pair: stage A and stage B
// each read a private block; both stages share a coefficient table, and
// stage A's partial result feeds stage B's second kernel two clusters
// later — exactly the inter-cluster reuse the Complete Data Scheduler
// exploits.
#include <iostream>

#include "msys/model/application.hpp"
#include "msys/report/runner.hpp"
#include "msys/common/strfmt.hpp"

int main() {
  using namespace msys;

  // ---- 1. Describe the application (what the Information Extractor
  // would produce from real kernel code). ----
  model::ApplicationBuilder b("quickstart", /*total_iterations=*/16);
  DataId coeffs = b.external_input("coeffs", SizeWords{96});

  DataId block_a = b.external_input("block_a", SizeWords{128});
  KernelId fir_a = b.kernel("fir_a", 48, Cycles{150}, {block_a, coeffs});
  DataId partial = b.output(fir_a, "partial", SizeWords{64});
  KernelId post_a = b.kernel("post_a", 32, Cycles{100}, {partial});
  b.output(post_a, "out_a", SizeWords{96}, /*required_in_external_memory=*/true);

  DataId block_b = b.external_input("block_b", SizeWords{128});
  KernelId fir_b = b.kernel("fir_b", 48, Cycles{150}, {block_b, coeffs});
  DataId mixed = b.output(fir_b, "mixed", SizeWords{64});
  KernelId post_b = b.kernel("post_b", 32, Cycles{100}, {mixed});
  b.add_input(post_b, partial);  // cross-cluster reuse of stage A's result
  b.output(post_b, "out_b", SizeWords{96}, /*required_in_external_memory=*/true);

  model::Application app = std::move(b).build();

  // ---- 2. Pick a kernel schedule.  Clusters alternate between the two
  // Frame Buffer sets (Cl1 -> A, Cl2 -> B, Cl3 -> A): placing both
  // consumers of `partial` in Cl3 puts them on its producer's set, which
  // is what makes the result retainable. ----
  model::KernelSchedule sched =
      model::KernelSchedule::from_partition(app, {{fir_a}, {fir_b}, {post_a, post_b}});

  // ---- 3. Machine: an M1 with 896-word Frame Buffer sets and a CM small
  // enough that contexts reload every slot. ----
  arch::M1Config cfg = arch::M1Config::m1_default();
  cfg.fb_set_size = SizeWords{896};
  cfg.cm_capacity_words = 112;
  cfg = arch::M1Config::validated(cfg);
  std::cout << "machine: " << cfg.summary() << "\n";
  std::cout << "schedule: " << sched.summary() << "\n\n";

  // ---- 4. Run Basic, DS and CDS end to end (schedule -> code ->
  // simulate; the runner asserts prediction == simulation). ----
  report::ExperimentResult result = report::run_experiment("quickstart", sched, cfg);

  for (const report::SchedulerOutcome* o : {&result.basic, &result.ds, &result.cds}) {
    std::cout << o->scheduler << ": ";
    if (!o->feasible()) {
      std::cout << "infeasible (" << o->schedule().infeasible_reason << ")\n";
      continue;
    }
    std::cout << o->predicted().total.value() << " cycles, RF=" << o->schedule().rf
              << ", retained=" << o->schedule().retained.size()
              << ", data loaded=" << o->predicted().data_words_loaded
              << "w, stored=" << o->predicted().data_words_stored
              << "w, contexts=" << o->predicted().context_words << "w\n";
  }
  if (result.ds_improvement()) {
    std::cout << "\nDS improvement over Basic:  " << percent(*result.ds_improvement())
              << "\nCDS improvement over Basic: " << percent(*result.cds_improvement())
              << "\n";
  }
  return 0;
}
