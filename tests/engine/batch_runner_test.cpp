// BatchRunner: deterministic input-order results, per-job failure as data,
// cache integration, and parallel == serial batch equivalence.
#include "msys/engine/batch_runner.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "msys/common/error.hpp"
#include "testing/apps.hpp"

namespace msys::engine {
namespace {

using testing::RetentionApp;
using testing::TwoClusterApp;
using testing::test_cfg;

Job job_from(RetentionApp made, arch::M1Config cfg,
             dsched::Pipeline pipeline = dsched::Pipeline::kCDS) {
  std::vector<std::vector<KernelId>> partition;
  for (const model::Cluster& c : made.sched.clusters()) partition.push_back(c.kernels);
  Job job;
  job.input = make_input(std::move(*made.app), std::move(partition), cfg);
  job.options.pipeline = pipeline;
  return job;
}

/// A mixed batch: distinct feasible jobs, one duplicate, one infeasible
/// (FB set far too small for the retention app's working set).
std::vector<Job> mixed_batch() {
  std::vector<Job> jobs;
  jobs.push_back(job_from(RetentionApp::make(6), test_cfg()));
  jobs.push_back(job_from(RetentionApp::make(9), test_cfg()));
  jobs.push_back(job_from(RetentionApp::make(6), test_cfg()));  // dup of [0]
  jobs.push_back(job_from(RetentionApp::make(6), test_cfg(64)));  // infeasible
  jobs.push_back(job_from(RetentionApp::make(12), test_cfg()));
  return jobs;
}

TEST(BatchRunner, ResultsComeBackInInputOrder) {
  ThreadPool pool(4);
  BatchRunner runner(pool);
  const std::vector<Job> jobs = mixed_batch();
  const std::vector<JobResult> results = runner.run(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_NE(results[i].result, nullptr) << "job " << i;
    EXPECT_EQ(results[i].key, cache_key(jobs[i])) << "job " << i;
  }
  // Duplicate positions carry identical keys, distinct jobs distinct keys.
  EXPECT_EQ(results[0].key, results[2].key);
  EXPECT_NE(results[0].key, results[1].key);
  EXPECT_NE(results[0].key, results[3].key);
}

TEST(BatchRunner, ReportedKeyIsTheKeyTheCacheUsed) {
  ThreadPool pool(2);
  ScheduleCache cache;
  BatchRunner runner(pool, &cache);
  const std::vector<JobResult> results = runner.run(mixed_batch());
  for (std::size_t i = 0; i < results.size(); ++i) {
    // The cache filed each result under exactly the key the runner reports.
    EXPECT_EQ(cache.lookup(results[i].key), results[i].result) << "job " << i;
  }
}

TEST(BatchRunner, InfeasibleJobDoesNotAbortTheBatch) {
  ThreadPool pool(2);
  BatchRunner runner(pool);
  const std::vector<JobResult> results = runner.run(mixed_batch());
  EXPECT_TRUE(results[0].feasible());
  EXPECT_TRUE(results[1].feasible());
  EXPECT_TRUE(results[2].feasible());
  EXPECT_FALSE(results[3].feasible());
  EXPECT_TRUE(results[4].feasible());
  // The failed job explains itself instead of throwing.
  ASSERT_NE(results[3].result, nullptr);
  EXPECT_FALSE(results[3].result->outcome.diagnostics.empty());
}

TEST(BatchRunner, EmptyBatchReturnsEmpty) {
  ThreadPool pool(2);
  BatchRunner runner(pool);
  EXPECT_TRUE(runner.run({}).empty());
}

TEST(BatchRunner, DuplicateJobsHitTheCache) {
  ThreadPool pool(1);  // serial: the duplicate definitely runs after its twin
  ScheduleCache cache;
  BatchRunner runner(pool, &cache);
  const std::vector<JobResult> results = runner.run(mixed_batch());
  EXPECT_EQ(results[0].tier, CacheTier::kCompute);
  EXPECT_EQ(results[2].tier, CacheTier::kMemory);
  EXPECT_EQ(results[0].result.get(), results[2].result.get());
  EXPECT_GE(cache.stats().hits, 1u);
  // A second identical batch is all hits.
  const std::vector<JobResult> again = runner.run(mixed_batch());
  for (const JobResult& r : again) EXPECT_EQ(r.tier, CacheTier::kMemory);
}

TEST(BatchRunner, ParallelMatchesSerialWithAndWithoutCache) {
  // The serial reference (one thread, no cache).
  ThreadPool serial_pool(1);
  BatchRunner serial(serial_pool);
  const std::vector<JobResult> want = serial.run(mixed_batch());

  struct Config {
    unsigned threads;
    bool cached;
  };
  for (const Config& c : {Config{4, false}, Config{4, true}, Config{8, true}}) {
    ThreadPool pool(c.threads);
    ScheduleCache cache;
    BatchRunner runner(pool, c.cached ? &cache : nullptr);
    const std::vector<JobResult> got = runner.run(mixed_batch());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].key, want[i].key) << i;
      ASSERT_EQ(got[i].feasible(), want[i].feasible()) << i;
      EXPECT_EQ(got[i].result->outcome.chosen_rung(),
                want[i].result->outcome.chosen_rung())
          << i;
      if (want[i].feasible()) {
        EXPECT_EQ(got[i].result->outcome.schedule.rf, want[i].result->outcome.schedule.rf)
            << i;
        EXPECT_EQ(got[i].result->predicted.total, want[i].result->predicted.total) << i;
      }
    }
  }
}

TEST(BatchRunner, PerKindJobsSelectTheRequestedScheduler) {
  ThreadPool pool(2);
  BatchRunner runner(pool);
  std::vector<Job> jobs;
  jobs.push_back(job_from(RetentionApp::make(6), test_cfg(), dsched::Pipeline::kBasic));
  jobs.push_back(job_from(RetentionApp::make(6), test_cfg(), dsched::Pipeline::kDS));
  jobs.push_back(job_from(RetentionApp::make(6), test_cfg(), dsched::Pipeline::kCDS));
  const std::vector<JobResult> results = runner.run(jobs);
  ASSERT_TRUE(results[0].feasible());
  ASSERT_TRUE(results[1].feasible());
  ASSERT_TRUE(results[2].feasible());
  // Distinct pipelines never share a cache key.
  EXPECT_NE(results[0].key, results[1].key);
  EXPECT_NE(results[1].key, results[2].key);
  // CDS must be at least as good as DS, DS at least as good as Basic.
  EXPECT_LE(results[2].result->predicted.total, results[1].result->predicted.total);
  EXPECT_LE(results[1].result->predicted.total, results[0].result->predicted.total);
}

// Regression: cache_key throws msys::Error for an input make_input did not
// build, and that throw used to escape a pool worker (std::terminate).  It
// now reaches run()'s caller, after every other job has finished.
TEST(BatchRunner, InputWithoutDigestThrowsToTheCaller) {
  ThreadPool pool(2);
  ScheduleCache cache;
  BatchRunner runner(pool, &cache);
  std::vector<Job> jobs = mixed_batch();
  Job undigested = jobs[1];
  undigested.input.sched_digest = 0;
  jobs.insert(jobs.begin() + 2, undigested);
  EXPECT_THROW((void)runner.run(jobs), Error);
  // The other jobs ran to completion: a rerun of the valid batch is all hits.
  for (const JobResult& r : runner.run(mixed_batch())) EXPECT_EQ(r.tier, CacheTier::kMemory);
}

}  // namespace
}  // namespace msys::engine
