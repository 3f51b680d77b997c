// Cold-batch stress: the fix for "parallel cold batches run slower than
// serial" must never trade determinism for throughput.  A batch of
// distinct workloads (100% miss rate) runs at 1/2/4 threads over a fresh
// cache each time, and the *encoded result bytes* — the exact payload the
// persistent store would write — must be identical across thread counts.
// A second batch floods the cache with content-identical jobs and demands
// single-flight keep duplicate_inserts at zero: no worker's compile may
// ever be thrown away.  This file also runs under the tsan preset (see
// scripts/check.sh): the per-worker arena/bitset scratch introduced for
// the cold path is single-threaded by design, and this test is the race
// detector's view of that claim.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "msys/engine/batch_runner.hpp"
#include "msys/engine/result_codec.hpp"
#include "msys/workloads/random.hpp"

namespace msys::engine {
namespace {

Job job_from_seed(std::uint64_t seed) {
  workloads::RandomSpec spec;
  spec.seed = seed;
  spec.min_kernels = 6;
  spec.max_kernels = 10;
  spec.min_iterations = 8;
  spec.max_iterations = 24;
  spec.reuse_percent = 60;
  spec.shared_inputs = 3;
  workloads::RandomExperiment exp = workloads::make_random(spec);
  std::vector<std::vector<KernelId>> partition;
  for (const model::Cluster& c : exp.sched.clusters()) partition.push_back(c.kernels);
  Job job;
  job.input = make_input(std::move(*exp.app), std::move(partition), exp.cfg);
  return job;
}

/// All-distinct batch: every job is a cold compile, nothing can hit.
std::vector<Job> distinct_batch(std::size_t n) {
  std::vector<Job> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) jobs.push_back(job_from_seed(4000 + i));
  return jobs;
}

/// The byte-exact view of a batch's output: one encoded payload per job,
/// in input order.  Two runs that differ anywhere in scheduling decisions
/// differ here.
std::vector<std::string> encoded_results(const std::vector<JobResult>& results) {
  std::vector<std::string> bytes;
  bytes.reserve(results.size());
  for (const JobResult& r : results) bytes.push_back(encode_result(*r.result));
  return bytes;
}

TEST(ColdBatchStress, ByteIdenticalAcrossThreadCountsAtFullMissRate) {
  const std::vector<Job> jobs = distinct_batch(8);
  std::vector<std::string> reference;
  for (const unsigned threads : {1U, 2U, 4U}) {
    ThreadPool pool(threads);
    ScheduleCache cache;  // fresh per thread count: every job misses
    BatchRunner runner(pool, &cache);
    BatchStats stats;
    const std::vector<JobResult> results = runner.run(jobs, &stats);

    EXPECT_EQ(stats.cache_hits, 0u) << threads << " threads";
    EXPECT_EQ(stats.cache_misses, jobs.size()) << threads << " threads";
    const ScheduleCache::Stats cs = cache.stats();
    EXPECT_EQ(cs.hits, 0u) << threads << " threads";
    EXPECT_EQ(cs.duplicate_inserts, 0u) << threads << " threads";

    const std::vector<std::string> bytes = encoded_results(results);
    if (reference.empty()) {
      reference = bytes;
      continue;
    }
    ASSERT_EQ(bytes.size(), reference.size());
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      EXPECT_EQ(bytes[i], reference[i])
          << "job " << i << " bytes diverged at " << threads << " threads";
    }
  }
}

TEST(ColdBatchStress, FloodedDuplicatesNeverDuplicateAnInsert) {
  // 4 distinct workloads x 6 copies, interleaved so concurrent workers
  // collide on the same keys while they are still in flight.
  std::vector<Job> jobs;
  for (std::size_t copy = 0; copy < 6; ++copy) {
    for (std::size_t i = 0; i < 4; ++i) jobs.push_back(job_from_seed(4100 + i));
  }

  // Serial reference bytes (1 thread, fresh cache).
  std::vector<std::string> reference;
  {
    ThreadPool pool(1);
    ScheduleCache cache;
    BatchRunner runner(pool, &cache);
    reference = encoded_results(runner.run(jobs));
  }

  ThreadPool pool(4);
  ScheduleCache cache;
  BatchRunner runner(pool, &cache);
  BatchStats stats;
  const std::vector<JobResult> results = runner.run(jobs, &stats);

  // Single-flight's whole point: colliding workers coalesce or hit, and
  // not one compile is discarded at insert.
  const ScheduleCache::Stats cs = cache.stats();
  EXPECT_EQ(cs.duplicate_inserts, 0u);
  EXPECT_EQ(cs.inserts, 4u);  // one per distinct workload
  EXPECT_EQ(cs.hits + cs.misses, jobs.size());
  // Waiter blocked time is accounted in its own bucket, never negative.
  EXPECT_GE(stats.inflight_wait_ms_total, 0.0);

  const std::vector<std::string> bytes = encoded_results(results);
  ASSERT_EQ(bytes.size(), reference.size());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    EXPECT_EQ(bytes[i], reference[i]) << "job " << i;
  }
}

}  // namespace
}  // namespace msys::engine
