// TransitionModel cross-check: the analytic mode footprint (from the
// DataSchedule + ContextPlan the serving loop prices switches with) must
// equal the footprint derived from simulator observations, on every
// Table-1 experiment — so every transition cycle the serving layer
// charges is backed by what the machine would actually move over DMA.
#include <gtest/gtest.h>

#include "msys/csched/context_plan.hpp"
#include "msys/report/runner.hpp"
#include "msys/serve/transition.hpp"
#include "msys/workloads/experiments.hpp"

namespace msys::serve {
namespace {

TEST(TransitionModelTest, FootprintMatchesSimulatorOnTable1Apps) {
  int checked = 0;
  for (const std::string& name : workloads::table1_experiment_names()) {
    SCOPED_TRACE(name);
    const workloads::Experiment exp = workloads::make_experiment(name);
    const report::SchedulerOutcome run = report::run_scheduler(exp.sched, exp.cfg);
    if (!run.feasible() || !run.measured.has_value()) continue;

    const csched::ContextPlan plan =
        csched::ContextPlan::build(*run.result->input.sched, exp.cfg.cm_capacity_words);
    ASSERT_TRUE(plan.feasible());

    const ModeFootprint analytic = footprint_of(run.schedule(), plan);
    const ModeFootprint from_sim =
        footprint_from_sim(*run.measured, plan, run.schedule().round_count());
    EXPECT_EQ(analytic, from_sim);

    // Identical footprints must price identically — the serving loop's
    // charged transition cycles equal what a simulator-derived model
    // would charge.
    const TransitionModel model(exp.cfg.dma);
    EXPECT_EQ(model.reload_cycles(analytic).value(),
              model.reload_cycles(from_sim).value());
    EXPECT_EQ(model.spill_cycles(analytic).value(),
              model.spill_cycles(from_sim).value());
    EXPECT_EQ(model.switch_in_cycles(analytic, true).value(),
              model.switch_in_cycles(from_sim, true).value());
    ++checked;
  }
  // The suite must actually exercise the cross-check, not vacuously pass.
  EXPECT_GE(checked, 6);
}

TEST(TransitionModelTest, ChargesFollowTheDmaModel) {
  arch::DmaModel dma;
  dma.cycles_per_data_word = Cycles{2};
  dma.cycles_per_context_word = Cycles{3};
  dma.transfer_setup = Cycles{8};
  const TransitionModel model(dma);

  ModeFootprint fp;
  fp.context_words = 10;
  fp.resident_words = 100;
  EXPECT_EQ(model.reload_cycles(fp).value(), 8u + 3u * 10u);
  EXPECT_EQ(model.spill_cycles(fp).value(), 8u + 2u * 100u);
  EXPECT_EQ(model.refill_cycles(fp).value(), 8u + 2u * 100u);
  EXPECT_EQ(model.switch_in_cycles(fp, false).value(), 8u + 3u * 10u);
  EXPECT_EQ(model.switch_in_cycles(fp, true).value(), (8u + 3u * 10u) + (8u + 2u * 100u));
}

TEST(TransitionModelTest, EmptyFootprintIsFree) {
  const TransitionModel model(arch::M1Config::m1_default().dma);
  const ModeFootprint none;
  EXPECT_EQ(model.reload_cycles(none).value(), 0u);
  EXPECT_EQ(model.spill_cycles(none).value(), 0u);
  EXPECT_EQ(model.switch_in_cycles(none, true).value(), 0u);
}

}  // namespace
}  // namespace msys::serve
