// The schedule space (space.hpp) and the kernel search that prices it.
#include "msys/search/kernel_search.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <string>

#include "msys/common/error.hpp"
#include "msys/csched/context_plan.hpp"
#include "msys/dsched/cost.hpp"
#include "msys/dsched/schedulers.hpp"
#include "msys/obs/metrics.hpp"
#include "msys/search/space.hpp"
#include "msys/workloads/experiments.hpp"
#include "testing/apps.hpp"

namespace msys::search {
namespace {

using testing::chain_app;
using testing::test_cfg;

TEST(ScheduleSpace, MasksEnumerateEveryShapeOnce) {
  for (std::size_t n = 1; n <= 7; ++n) {
    std::set<Shape> shapes;
    for (std::uint64_t mask = 0; mask < space_size(n); ++mask) {
      const Shape shape = shape_of_mask(mask, n);
      EXPECT_EQ(std::accumulate(shape.begin(), shape.end(), std::size_t{0}), n);
      shapes.insert(shape);
    }
    EXPECT_EQ(shapes.size(), std::size_t{1} << (n - 1)) << n;
  }
  EXPECT_EQ(space_size(14), 8192u);
  EXPECT_EQ(space_size(64), std::uint64_t{1} << 63);
  EXPECT_EQ(space_size(65), UINT64_MAX);
}

TEST(ScheduleSpace, ScheduleOfCutsTheOrderIntoTheShape) {
  const model::Application app = chain_app(6);
  const Shape shape{2, 1, 3};
  const model::KernelSchedule sched = schedule_of(app, app.topological_order(), shape);
  EXPECT_EQ(shape_of(sched), shape);
  EXPECT_EQ(sched.flattened_order(), app.topological_order());
  EXPECT_THROW((void)schedule_of(app, app.topological_order(), Shape{2, 1}), Error);
}

TEST(ScheduleSpace, GreedyContextReproducesCds) {
  // A context's greedy() decisions and price are CDS's schedule and its
  // predicted cost, on every Table-1 schedule.
  for (const std::string& name : workloads::table1_experiment_names()) {
    const workloads::Experiment exp = workloads::make_experiment(name);
    const extract::ScheduleAnalysis analysis(exp.sched, exp.cfg.cross_set_reads);
    const dsched::DataSchedule cds = dsched::CompleteDataScheduler().schedule(analysis, exp.cfg);
    ASSERT_TRUE(cds.feasible) << name;
    ShapeContext ctx(analysis, exp.cfg);
    const std::optional<dsched::DriverOptions> options = ctx.greedy();
    ASSERT_TRUE(options.has_value()) << name;
    EXPECT_EQ(options->rf, cds.rf) << name;
    EXPECT_EQ(options->retained, cds.retained) << name;
    const std::optional<Cycles> cycles = ctx.price(options->rf, options->retained);
    ASSERT_TRUE(cycles.has_value()) << name;
    const csched::ContextPlan plan =
        csched::ContextPlan::build(exp.sched, exp.cfg.cm_capacity_words);
    EXPECT_EQ(*cycles, dsched::predict_cost(cds, exp.cfg, plan).total) << name;
  }
}

TEST(KernelScheduler, ExhaustiveFindsFeasibleSchedule) {
  model::Application app = chain_app(4);
  SearchResult result = exhaustive_search(app, test_cfg(1024));
  ASSERT_TRUE(result.found());
  EXPECT_EQ(result.evaluated, 8u);  // 2^(4-1)
  EXPECT_GT(result.feasible_count, 0u);
  EXPECT_GT(result.best_cycles.value(), 0u);
}

TEST(KernelScheduler, BestBeatsOrEqualsEveryCandidate) {
  model::Application app = chain_app(5);
  const arch::M1Config cfg = test_cfg(1024);
  SearchResult result = exhaustive_search(app, cfg);
  ASSERT_TRUE(result.found());
  std::uint64_t feasible = 0;
  for (std::uint64_t mask = 0; mask < space_size(5); ++mask) {
    ShapeContext ctx(app, app.topological_order(), shape_of_mask(mask, 5), cfg);
    const std::optional<dsched::DriverOptions> options = ctx.greedy();
    if (!options) continue;
    const std::optional<Cycles> cycles = ctx.price(options->rf, options->retained);
    if (!cycles) continue;
    ++feasible;
    EXPECT_LE(result.best_cycles, *cycles) << "mask " << mask;
  }
  EXPECT_EQ(feasible, result.feasible_count);
}

TEST(KernelScheduler, NoScheduleWhenFbTooSmall) {
  model::Application app = chain_app(3);
  SearchResult result = find_best_schedule(app, test_cfg(16));
  EXPECT_FALSE(result.found());
  EXPECT_EQ(result.feasible_count, 0u);
}

TEST(KernelScheduler, GreedyFindsReasonableSchedule) {
  model::Application app = chain_app(6);
  SearchResult exact = exhaustive_search(app, test_cfg(1024));
  SearchResult approx = greedy_merge_search(app, test_cfg(1024));
  ASSERT_TRUE(exact.found());
  ASSERT_TRUE(approx.found());
  EXPECT_LT(approx.evaluated, exact.evaluated);
  // Greedy is within 35% of the exhaustive optimum on this easy chain.
  EXPECT_LE(approx.best_cycles.value(),
            exact.best_cycles.value() + exact.best_cycles.value() * 35 / 100);
}

TEST(KernelScheduler, AutoSwitchesToGreedyOverBudget) {
  // 13 kernels: 4096 shapes, enumerated; 14: 8192, merged greedily.
  EXPECT_EQ(find_best_schedule(chain_app(13), test_cfg(1024)).evaluated, kExhaustiveLimit);
  model::Application app = chain_app(14);
  SearchResult result = find_best_schedule(app, test_cfg(1024));
  ASSERT_TRUE(result.found());
  EXPECT_LT(result.evaluated, space_size(14));
  EXPECT_EQ(result.evaluated, greedy_merge_search(app, test_cfg(1024)).evaluated);
}

TEST(KernelScheduler, SingleKernelApp) {
  model::Application app = chain_app(1);
  SearchResult result = find_best_schedule(app, test_cfg(1024));
  ASSERT_TRUE(result.found());
  EXPECT_EQ(result.evaluated, 1u);
  EXPECT_EQ(result.best->cluster_count(), 1u);
}

TEST(KernelScheduler, BuildsNoDataSchedule) {
  // Shapes are priced at CDS's decisions through their plan memo; no CDS
  // run (and so no DataSchedule) happens.
  const obs::Counter& cds_runs = obs::counter("dsched.runs.cds");
  const std::uint64_t before = cds_runs.value();
  const workloads::Experiment exp = workloads::make_experiment("ATR-SLD");
  const SearchResult result = find_best_schedule(*exp.app, exp.cfg);
  ASSERT_TRUE(result.found());
  EXPECT_EQ(result.evaluated, 512u);
  EXPECT_EQ(cds_runs.value(), before);
}

}  // namespace
}  // namespace msys::search
