// Cross-checks between the observability layer and the subsystems it
// instruments: the global counter deltas must agree with ScheduleCache's
// own stats, and the simulated-clock trace lanes must sum to the
// SimReport busy totals (the same numbers report::render_timeline prints).
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "msys/codegen/program.hpp"
#include "msys/dsched/schedulers.hpp"
#include "msys/engine/schedule_cache.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/obs/metrics.hpp"
#include "msys/obs/trace.hpp"
#include "msys/sim/simulator.hpp"
#include "msys/workloads/experiments.hpp"
#include "testing/apps.hpp"

namespace msys {
namespace {

engine::Job retention_job() {
  testing::RetentionApp made = testing::RetentionApp::make(/*iterations=*/6);
  std::vector<std::vector<KernelId>> partition;
  for (const model::Cluster& c : made.sched.clusters()) partition.push_back(c.kernels);
  engine::Job job;
  job.input = engine::make_input(std::move(*made.app), std::move(partition),
                                 testing::test_cfg());
  return job;
}

engine::Job cds_job(model::Application app, const model::KernelSchedule& sched,
                    arch::M1Config cfg) {
  std::vector<std::vector<KernelId>> partition;
  for (const model::Cluster& c : sched.clusters()) partition.push_back(c.kernels);
  engine::Job job;
  job.input = engine::make_input(std::move(app), std::move(partition), std::move(cfg));
  return job;
}

engine::Job table1_job(std::string_view row) {
  workloads::Experiment exp = workloads::make_experiment(row);
  return cds_job(std::move(*exp.app), exp.sched, exp.cfg);
}

/// A job the CDS does not fit.
engine::Job unfit_job(std::uint64_t fb_words) {
  testing::TwoClusterApp made = testing::TwoClusterApp::make();
  return cds_job(std::move(*made.app), made.sched, testing::test_cfg(fb_words));
}

/// Registry lookups performed by `job`'s compile.  The job is built before
/// counting: only the compile itself is measured.
std::uint64_t lookups_during_compile(const engine::Job& job) {
  const std::uint64_t before = obs::MetricsRegistry::global().lookups();
  (void)engine::compile_job(job);
  return obs::MetricsRegistry::global().lookups() - before;
}

TEST(ObsIntegration, WarmCompilePerformsNoRegistryLookups) {
  // The first compile resolves every instrumentation handle; a cold compile
  // of a different Table-1 row must then reuse them all.
  (void)lookups_during_compile(table1_job("E1"));
  const engine::Job job = table1_job("MPEG");
  EXPECT_EQ(lookups_during_compile(job), 0u);
  EXPECT_TRUE(engine::compile_job(job)->feasible());
}

TEST(ObsIntegration, WarmFallbackLadderPerformsNoRegistryLookups) {
  (void)lookups_during_compile(unfit_job(100));
  const engine::Job job = unfit_job(90);
  EXPECT_EQ(lookups_during_compile(job), 0u);
  const auto result = engine::compile_job(job);
  EXPECT_FALSE(result->feasible());
  ASSERT_EQ(result->outcome.attempts.size(), 1u);
  EXPECT_TRUE(result->outcome.attempts[0].attempted);
}

TEST(ObsIntegration, CacheCountersAgreeWithCacheStats) {
  // The obs counters are process-global while Stats is per-cache, so the
  // comparison runs on a fresh cache inside a snapshot-diffed phase: every
  // engine.cache.* movement in the delta came from this cache.
  const obs::MetricsSnapshot before = obs::snapshot();
  engine::ScheduleCache cache;
  const engine::Job job = retention_job();
  engine::CacheTier tier = engine::CacheTier::kMemory;
  ASSERT_NE(cache.get_or_compile(job, {}, &tier), nullptr);
  EXPECT_EQ(tier, engine::CacheTier::kCompute);
  ASSERT_NE(cache.get_or_compile(job, {}, &tier), nullptr);
  EXPECT_EQ(tier, engine::CacheTier::kMemory);
  const obs::MetricsSnapshot delta = obs::snapshot().since(before);
  const engine::ScheduleCache::Stats stats = cache.stats();
  EXPECT_EQ(delta.counter("engine.cache.hits"), stats.hits);
  EXPECT_EQ(delta.counter("engine.cache.misses"), stats.misses);
  EXPECT_EQ(delta.counter("engine.cache.inserts"), stats.inserts);
  EXPECT_EQ(delta.counter("engine.cache.duplicate_inserts"), stats.duplicate_inserts);
  EXPECT_EQ(delta.counter("engine.cache.evictions"), stats.evictions);
}

TEST(ObsIntegration, SimCountersAndTraceLanesAgreeWithTheReport) {
  testing::TwoClusterApp t = testing::TwoClusterApp::make(/*iterations=*/2);
  const arch::M1Config cfg = testing::test_cfg(1024, 127);
  extract::ScheduleAnalysis analysis(t.sched);
  const dsched::DataSchedule schedule =
      dsched::CompleteDataScheduler{}.schedule(analysis, cfg);
  const csched::ContextPlan plan =
      csched::ContextPlan::build(t.sched, cfg.cm_capacity_words);
  const codegen::ScheduleProgram program = codegen::generate(schedule, plan);

  obs::TraceRecorder recorder;
  sim::SimReport report;
  const obs::MetricsSnapshot before = obs::snapshot();
  {
    obs::TraceSession session(recorder);
    sim::Simulator simulator(cfg, plan);
    report = simulator.run(program);
  }
  const obs::MetricsSnapshot delta = obs::snapshot().since(before);

  // Counter deltas == the report the caller saw.
  EXPECT_EQ(delta.counter("sim.runs"), 1u);
  EXPECT_EQ(delta.counter("sim.cycles.total"), report.total.value());
  EXPECT_EQ(delta.counter("sim.cycles.compute"), report.compute.value());
  EXPECT_EQ(delta.counter("sim.cycles.dma_busy"), report.dma_busy.value());
  EXPECT_EQ(delta.counter("sim.cycles.stall"), report.stall.value());
  EXPECT_EQ(delta.counter("sim.words.loaded"), report.data_words_loaded);
  EXPECT_EQ(delta.counter("sim.words.stored"), report.data_words_stored);
  EXPECT_EQ(delta.counter("sim.words.context"), report.context_words);

  // Lane agreement: the RC array and the DMA channel each execute their
  // ops serially, so the per-lane duration sums must equal the busy totals
  // render_timeline reports.
  std::uint64_t rc_busy = 0;
  std::uint64_t dma_busy = 0;
  std::uint64_t exec_events = 0;
  for (const obs::TraceEvent& e : recorder.events()) {
    if (!e.sim_time) continue;
    EXPECT_GT(e.dur, 0u);  // zero-width bookkeeping must not be exported
    if (e.tid == static_cast<std::uint32_t>(obs::SimLane::kRc)) {
      rc_busy += e.dur;
      ++exec_events;
    } else {
      ASSERT_EQ(e.tid, static_cast<std::uint32_t>(obs::SimLane::kDma));
      dma_busy += e.dur;
    }
  }
  EXPECT_EQ(rc_busy, report.compute.value());
  EXPECT_EQ(dma_busy, report.dma_busy.value());
  EXPECT_EQ(exec_events, report.exec_count);
}

}  // namespace
}  // namespace msys
