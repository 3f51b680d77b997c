// Ablation A4 (extension): the paper's CDS fixes RF *before* choosing what
// to retain ("it achieves the highest common RF value... Moreover [it]
// chooses which data have to be kept"), so when raising RF consumes the FB
// space retention would have used, retention silently loses.  The joint
// optimiser evaluates the greedy retention at every feasible RF and keeps
// the cheapest (RF, retained-set) pair.
//
// The quickstart-style pipeline below shows the effect directly: as the FB
// grows, the paper ordering keeps jumping to the next RF and dropping the
// retained result, while the joint ordering holds RF back whenever the
// retained transfers are worth more.
#include <iostream>

#include "msys/common/strfmt.hpp"
#include "msys/common/table.hpp"
#include "msys/model/application.hpp"
#include "msys/report/runner.hpp"
#include "msys/workloads/experiments.hpp"

namespace {

struct Built {
  std::unique_ptr<msys::model::Application> app;
  msys::model::KernelSchedule sched;
};

Built build_pipeline() {
  using namespace msys;
  model::ApplicationBuilder b("pipeline", 16);
  DataId coeffs = b.external_input("coeffs", SizeWords{96});
  DataId block_a = b.external_input("block_a", SizeWords{128});
  KernelId fir_a = b.kernel("fir_a", 48, Cycles{150}, {block_a, coeffs});
  DataId partial = b.output(fir_a, "partial", SizeWords{64});
  KernelId post_a = b.kernel("post_a", 32, Cycles{100}, {partial});
  b.output(post_a, "out_a", SizeWords{96}, true);
  DataId block_b = b.external_input("block_b", SizeWords{128});
  KernelId fir_b = b.kernel("fir_b", 48, Cycles{150}, {block_b, coeffs});
  DataId mixed = b.output(fir_b, "mixed", SizeWords{64});
  KernelId post_b = b.kernel("post_b", 32, Cycles{100}, {mixed});
  b.add_input(post_b, partial);
  b.output(post_b, "out_b", SizeWords{96}, true);
  auto app = std::make_unique<model::Application>(std::move(b).build());
  model::KernelSchedule sched = model::KernelSchedule::from_partition(
      *app, {{fir_a}, {fir_b}, {post_a, post_b}});
  return {std::move(app), std::move(sched)};
}

}  // namespace

int main() {
  using namespace msys;
  Built built = build_pipeline();

  TextTable table({"FB", "paper RF", "paper kept", "paper cyc", "joint RF", "joint kept",
                   "joint cyc", "joint gain"});
  std::uint64_t joint_wins = 0;
  for (std::uint64_t fb = 576; fb <= 1600; fb += 64) {
    arch::M1Config cfg = arch::M1Config::m1_default();
    cfg.fb_set_size = SizeWords{fb};
    cfg.cm_capacity_words = 112;  // per-slot context reloads

    report::SchedulerOutcome paper = report::run_scheduler(built.sched, cfg);
    report::SchedulerOutcome joint =
        report::run_scheduler(built.sched, cfg, {.cds = {.joint_rf_retention = true}});
    if (!paper.feasible() || !joint.feasible()) continue;
    const double gain =
        1.0 - static_cast<double>(joint.predicted().total.value()) /
                  static_cast<double>(paper.predicted().total.value());
    if (joint.predicted().total < paper.predicted().total) ++joint_wins;
    table.add_row({
        size_kb(SizeWords{fb}),
        std::to_string(paper.schedule().rf),
        std::to_string(paper.schedule().retained.size()),
        std::to_string(paper.predicted().total.value()),
        std::to_string(joint.schedule().rf),
        std::to_string(joint.schedule().retained.size()),
        std::to_string(joint.predicted().total.value()),
        percent(gain),
    });
  }
  std::cout << "Ablation A4 (extension): RF-first (paper) vs joint RF+retention\n\n";
  table.print(std::cout);
  std::cout << "\njoint strictly better on " << joint_wins
            << " FB sizes (never worse by construction)\n";

  // Registry check: at the paper's operating points the two orderings
  // mostly coincide.
  TextTable reg({"Experiment", "paper cyc", "joint cyc", "equal"});
  for (const std::string& name : workloads::table1_experiment_names()) {
    workloads::Experiment exp = workloads::make_experiment(name);
    report::SchedulerOutcome paper = report::run_scheduler(exp.sched, exp.cfg);
    report::SchedulerOutcome joint =
        report::run_scheduler(exp.sched, exp.cfg, {.cds = {.joint_rf_retention = true}});
    reg.add_row({exp.name, std::to_string(paper.predicted().total.value()),
                 std::to_string(joint.predicted().total.value()),
                 paper.predicted().total == joint.predicted().total ? "yes" : "no"});
  }
  std::cout << "\nRegistry comparison:\n\n";
  reg.print(std::cout);
  return 0;
}
