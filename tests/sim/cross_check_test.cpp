#include "msys/sim/cross_check.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "msys/dsched/schedulers.hpp"
#include "msys/engine/thread_pool.hpp"
#include "msys/search/anneal.hpp"
#include "testing/apps.hpp"
#include "testing/oracle.hpp"
#include "testing/round_plan_edit.hpp"

namespace msys::sim {
namespace {

using extract::ScheduleAnalysis;
using testing::TwoClusterApp;
using testing::test_cfg;

TEST(CrossCheck, CorruptedScheduleStopsAtValidator) {
  TwoClusterApp t = TwoClusterApp::make();
  const ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024);
  const csched::ContextPlan ctx = csched::ContextPlan::build(t.sched, cfg.cm_capacity_words);
  dsched::DataSchedule schedule = dsched::DataScheduler{}.schedule(analysis, cfg);
  ASSERT_TRUE(schedule.feasible);
  testing::edit_loads(schedule.round_plan, ClusterId{0}, [](auto& loads) { loads.pop_back(); });
  const CrossCheck check =
      cross_check(schedule, dsched::predict_cost(schedule, cfg, ctx), analysis, cfg, ctx);
  EXPECT_EQ(check.stage, CrossCheck::Stage::kValidator);
  EXPECT_FALSE(check.diagnostics.empty());
  EXPECT_FALSE(check.measured.has_value());
}

// Fallback schedules with slots that store nothing: a model that charges
// a store barrier there overstates stall (and total) on exactly these
// two inputs of the screened ranges.
TEST(CrossCheck, EmptyStoreSlotsAgree) {
  for (const workloads::RandomSpec& spec :
       {testing::family_spec(103695), testing::large_spec(300056)}) {
    const CrossCheck check = testing::cds_cross_check(spec);
    EXPECT_TRUE(check.ok()) << "seed " << spec.seed << ": " << check.why();
  }
}

// Seeds whose annealing search met candidates with empty-store slots: an
// empty-store barrier in the model made cross_check reject them.  The
// annealer cross-checks only the island bests at its merge, so this test
// sees winners alone; AnnealPricing.* (search_test) holds every sampled
// skeleton's price to the simulator.
TEST(CrossCheck, AnnealerRejectsNoCandidate) {
  engine::ThreadPool pool(2);
  search::AnnealOptions options;
  options.budget = 256;
  options.islands = 4;
  for (const std::uint64_t seed : testing::kEmptyStoreAnnealSeeds) {
    const workloads::RandomExperiment exp = workloads::make_random(testing::anneal_spec(seed));
    const ScheduleAnalysis analysis(exp.sched, exp.cfg.cross_set_reads);
    const search::AnnealResult result =
        search::anneal_schedule(analysis, exp.cfg, options, &pool);
    std::uint32_t rejects = 0;
    for (const search::IslandStats& island : result.islands) rejects += island.sim_rejects;
    EXPECT_EQ(rejects, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace msys::sim
