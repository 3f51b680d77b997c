// ScheduleCache: canonical-key behaviour, LRU bounding, counters, and the
// concurrent hammer (N threads, one shared cache, results identical to a
// serial reference run).
#include "msys/engine/schedule_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "msys/common/error.hpp"
#include "msys/engine/thread_pool.hpp"
#include "msys/model/canonical.hpp"
#include "testing/apps.hpp"

namespace msys::engine {
namespace {

/// A fresh job compiling the shared RetentionApp; `iterations` perturbs
/// the content when distinct jobs are needed.
Job retention_job(std::uint32_t iterations = 6) {
  testing::RetentionApp made = testing::RetentionApp::make(iterations);
  std::vector<std::vector<KernelId>> partition;
  for (const model::Cluster& c : made.sched.clusters()) partition.push_back(c.kernels);
  Job job;
  job.input =
      make_input(std::move(*made.app), std::move(partition), testing::test_cfg());
  return job;
}

TEST(CacheKey, IdenticalContentIdenticalKey) {
  // Two separately built inputs with the same content must collide — that
  // is the whole point of content addressing.
  EXPECT_EQ(cache_key(retention_job()), cache_key(retention_job()));
}

TEST(CacheKey, DiffersByContentMachineKindAndOptions) {
  const Job base = retention_job();
  const std::uint64_t base_key = cache_key(base);

  EXPECT_NE(base_key, cache_key(retention_job(7)));  // app content

  Job machine = base;
  machine.input.cfg = machine.input.cfg.with_fb_set_size(SizeWords{2048});
  EXPECT_NE(base_key, cache_key(machine));

  Job ranking = base;
  ranking.options.cds.ranking =
      dsched::CompleteDataScheduler::Options::Ranking::kDensity;
  EXPECT_NE(base_key, cache_key(ranking));

  // Each pipeline compiles a different artifact; its cache (and store)
  // entries never collide with another's.  Only the CDS reads the CDS
  // options, so a DS or Basic job has one key whatever they say.
  std::set<std::uint64_t> keys{base_key};
  for (const dsched::Pipeline pipeline :
       {dsched::Pipeline::kDS, dsched::Pipeline::kBasic, dsched::Pipeline::kBasicThenRescue}) {
    Job job = base;
    job.options.pipeline = pipeline;
    EXPECT_TRUE(keys.insert(cache_key(job)).second) << dsched::to_string(pipeline);
    Job density = ranking;
    density.options.pipeline = pipeline;
    EXPECT_EQ(cache_key(job), cache_key(density)) << dsched::to_string(pipeline);
  }
}

/// a -> k1 -> t -> k2 -> r, plus input b to k2, two clusters.  `reordered`
/// declares the same DAG in a different builder order (ids differ, content
/// does not); `k2_cycles` stands in for a tenant's row-share rescale.
Job two_kernel_job(bool reordered, std::uint64_t k2_cycles = 200) {
  model::ApplicationBuilder b("demo", 8);
  DataId a;
  DataId bb;
  if (reordered) {
    bb = b.external_input("b", SizeWords{32});
    a = b.external_input("a", SizeWords{64});
  } else {
    a = b.external_input("a", SizeWords{64});
    bb = b.external_input("b", SizeWords{32});
  }
  const KernelId k1 = b.kernel("k1", 16, Cycles{100}, {a});
  const DataId t = b.output(k1, "t", SizeWords{48});
  const KernelId k2 = b.kernel("k2", 24, Cycles{k2_cycles}, {t});
  b.add_input(k2, bb);
  b.output(k2, "r", SizeWords{16}, true);
  Job job;
  job.input = make_input(std::move(b).build(),
                         std::vector<std::vector<std::string>>{{"k1"}, {"k2"}},
                         testing::test_cfg());
  return job;
}

TEST(CacheKey, MakeInputRecordsTheCanonicalScheduleDigest) {
  const Job job = retention_job();
  EXPECT_NE(job.input.sched_digest, 0u);
  EXPECT_EQ(job.input.sched_digest, model::canonical_hash(*job.input.sched));
}

TEST(CacheKey, IndependentOfDeclarationOrder) {
  const Job in_order = two_kernel_job(false);
  const Job reordered = two_kernel_job(true);
  EXPECT_NE(in_order.input.app->data_objects().front().name,
            reordered.input.app->data_objects().front().name);
  EXPECT_EQ(in_order.input.sched_digest, reordered.input.sched_digest);
  EXPECT_EQ(cache_key(in_order), cache_key(reordered));
}

TEST(CacheKey, RowShareRescaleChangesTheKey) {
  // A tenant owning half the rows runs each kernel at twice the cycles;
  // its compile must never share a key with the full-rows tenant's.
  const Job full_rows = two_kernel_job(false);
  const Job rescaled = two_kernel_job(false, 400);
  EXPECT_NE(full_rows.input.sched_digest, rescaled.input.sched_digest);
  EXPECT_NE(cache_key(full_rows), cache_key(rescaled));
}

TEST(CacheKey, RejectsAnInputWithoutADigest) {
  EXPECT_THROW((void)cache_key(Job{}), Error);
  // A hand-assembled input that skipped make_input must not alias the
  // all-zero digest of every other such input.
  Job hand_built = retention_job();
  hand_built.input.sched_digest = 0;
  EXPECT_THROW((void)cache_key(hand_built), Error);
}

TEST(ScheduleCache, MissThenHitReturnsSameResultObject) {
  ScheduleCache cache;
  const Job job = retention_job();
  CacheTier tier = CacheTier::kMemory;
  const auto first = cache.get_or_compile(job, {}, &tier);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(tier, CacheTier::kCompute);
  const auto second = cache.get_or_compile(job, {}, &tier);
  EXPECT_EQ(tier, CacheTier::kMemory);
  EXPECT_EQ(first.get(), second.get());  // memoized, not recomputed

  const ScheduleCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ScheduleCache, CachedResultOutlivesTheInputThatComputedIt) {
  // The cache entry carries its own keep-alive: the app/schedule the job
  // was built from can die and a later hit must still be safe to read.
  ScheduleCache cache;
  std::uint64_t key = 0;
  {
    const Job job = retention_job();
    key = cache_key(job);
    (void)cache.get_or_compile(job);
  }  // job's shared_ptrs dropped; the cache keeps the result's copies alive
  const auto cached = cache.lookup(key);
  ASSERT_NE(cached, nullptr);
  ASSERT_TRUE(cached->feasible());
  // Touch the internal pointers: schedule -> kernel schedule -> app.
  EXPECT_EQ(cached->outcome.schedule.sched->app().name(), "retention");
  EXPECT_GT(cached->predicted.total.value(), 0u);
}

/// Inserts keys 1..kCapacity in order, filling the cache exactly.
void fill_to_capacity(ScheduleCache& cache,
                      const std::shared_ptr<const CompiledResult>& result) {
  for (std::uint64_t key = 1; key <= ScheduleCache::kCapacity; ++key) {
    cache.insert(key, result);
  }
}

constexpr std::uint64_t kOverflowKey = ScheduleCache::kCapacity + 1;

TEST(ScheduleCache, LruEvictsOldestAtCapacity) {
  ScheduleCache cache;
  const auto result = compile_job(retention_job());
  fill_to_capacity(cache, result);
  EXPECT_EQ(cache.stats().evictions, 0u);
  // Refresh key 1, then overflow: key 2 is now the LRU victim.
  EXPECT_NE(cache.lookup(1), nullptr);
  cache.insert(kOverflowKey, result);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
  EXPECT_NE(cache.lookup(kOverflowKey), nullptr);
  EXPECT_EQ(cache.stats().entries, ScheduleCache::kCapacity);
}

TEST(ScheduleCache, InsertIsFirstWriterWins) {
  ScheduleCache cache;
  const auto a = compile_job(retention_job());
  const auto b = compile_job(retention_job());
  ASSERT_NE(a.get(), b.get());
  fill_to_capacity(cache, a);
  // A duplicate at capacity is dropped: it neither replaces the entry nor
  // evicts another one.
  cache.insert(7, b);
  EXPECT_EQ(cache.lookup(7).get(), a.get());
  // Regression: the losing insert used to vanish from the stats entirely;
  // it is now counted as wasted compute.
  EXPECT_EQ(cache.stats().inserts, ScheduleCache::kCapacity);
  EXPECT_EQ(cache.stats().duplicate_inserts, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().entries, ScheduleCache::kCapacity);
}

TEST(ScheduleCache, DuplicateInsertRefreshesLruRecency) {
  // Regression: the duplicate-key path used to skip the recency splice, so
  // a key kept hot by concurrent double-computes could still age to the
  // LRU tail and be evicted first.
  ScheduleCache cache;
  const auto result = compile_job(retention_job());
  fill_to_capacity(cache, result);
  cache.insert(1, result);             // duplicate: must move key 1 to the front
  cache.insert(kOverflowKey, result);  // overflow: victim must be key 2, not key 1
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_EQ(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
  EXPECT_NE(cache.lookup(kOverflowKey), nullptr);
  EXPECT_EQ(cache.stats().duplicate_inserts, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ScheduleCache, ConcurrentDoubleComputeIsCoalescedBySingleFlight) {
  // N threads race get_or_compile on one fresh key.  Pre-single-flight,
  // several threads would miss, compile, and collide on insert (visible as
  // duplicate_inserts).  Now exactly one thread computes; everyone who
  // arrived during the compute coalesces onto it, so the duplicate-insert
  // count stays at zero no matter how the race interleaves.
  constexpr int kThreads = 8;
  ScheduleCache cache;
  std::vector<std::shared_ptr<const CompiledResult>> seen(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([t, &cache, &seen] {
        seen[static_cast<std::size_t>(t)] = cache.get_or_compile(retention_job());
      });
    }
    for (std::thread& t : threads) t.join();
  }
  // Read the stats before the canonical-result check below: lookup()
  // itself counts a hit.
  const ScheduleCache::Stats stats = cache.stats();

  // Everyone observed a live result for the same key — the same object,
  // since only one compute ran and everyone else shared it.
  const auto canonical = cache.lookup(cache_key(retention_job()));
  ASSERT_NE(canonical, nullptr);
  for (const auto& r : seen) ASSERT_EQ(r.get(), canonical.get());

  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.duplicate_inserts, 0u);
  // Coalesced arrivals are counted as misses (they waited a full compile),
  // and every miss beyond the winner's is one of them.
  EXPECT_EQ(stats.misses, 1u + stats.inflight_coalesced);
}

TEST(ScheduleCache, SingleFlightCoalescesAllWaitersOntoOneCompute) {
  // Deterministic single-flight stress: the winner's compute-fn refuses to
  // finish until the stats show every other thread has coalesced onto the
  // in-flight entry, so the outcome (1 compute, N-1 coalesced, N-1 waits)
  // is forced, not left to scheduling luck.
  constexpr int kThreads = 6;
  ScheduleCache cache;
  const auto precomputed = compile_job(retention_job());
  std::atomic<int> computes{0};

  const ScheduleCache::ComputeFn compute = [&]() {
    computes.fetch_add(1);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (cache.stats().inflight_coalesced <
           static_cast<std::uint64_t>(kThreads - 1)) {
      if (std::chrono::steady_clock::now() > deadline) {
        ADD_FAILURE() << "waiters never coalesced";
        break;
      }
      std::this_thread::yield();
    }
    return precomputed;
  };

  std::vector<std::shared_ptr<const CompiledResult>> seen(kThreads);
  std::vector<CacheTier> tiers(kThreads, CacheTier::kMemory);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([t, &cache, &compute, &seen, &tiers] {
        const auto i = static_cast<std::size_t>(t);
        seen[i] = cache.get_or_compile(/*key=*/42, compute, &tiers[i]);
      });
    }
    for (std::thread& t : threads) t.join();
  }

  EXPECT_EQ(computes.load(), 1);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)].get(), precomputed.get());
    // The winner and every coalesced waiter paid a miss.
    EXPECT_EQ(tiers[static_cast<std::size_t>(t)], CacheTier::kCompute);
  }
  const ScheduleCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.duplicate_inserts, 0u);
  EXPECT_EQ(stats.inflight_coalesced, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.inflight_waits, static_cast<std::uint64_t>(kThreads - 1));
  // A later call is a plain hit — the in-flight entry fully retired.
  CacheTier tier = CacheTier::kCompute;
  EXPECT_EQ(cache.get_or_compile(42, compute, &tier).get(), precomputed.get());
  EXPECT_EQ(tier, CacheTier::kMemory);
  EXPECT_EQ(computes.load(), 1);
}

TEST(ScheduleCache, SingleFlightPropagatesComputeExceptionToAllWaiters) {
  // A throwing compute must not wedge the in-flight entry: the winner and
  // every coalesced waiter see the exception, and the key stays absent so
  // a retry can succeed.
  ScheduleCache cache;
  const ScheduleCache::ComputeFn boom = []() -> std::shared_ptr<const CompiledResult> {
    throw std::runtime_error("compile failed");
  };
  EXPECT_THROW((void)cache.get_or_compile(7, boom), std::runtime_error);
  EXPECT_EQ(cache.lookup(7), nullptr);
  // Retry with a working compute succeeds — no poisoned in-flight entry.
  const auto good = compile_job(retention_job());
  CacheTier tier = CacheTier::kMemory;
  EXPECT_EQ(cache.get_or_compile(7, [&] { return good; }, &tier).get(), good.get());
  EXPECT_EQ(tier, CacheTier::kCompute);
}

TEST(ScheduleCache, ConcurrentHammerMatchesSerial) {
  // Serial reference: distinct jobs compiled once, no cache.
  constexpr int kDistinct = 4;
  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 25;
  std::vector<std::shared_ptr<const CompiledResult>> reference;
  for (int i = 0; i < kDistinct; ++i) {
    reference.push_back(compile_job(retention_job(6 + i)));
  }

  ScheduleCache cache;
  std::vector<std::vector<std::shared_ptr<const CompiledResult>>> seen(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([t, &cache, &seen] {
        for (int round = 0; round < kRoundsPerThread; ++round) {
          const int which = (t + round) % kDistinct;
          const Job job = retention_job(6 + which);
          seen[t].push_back(cache.get_or_compile(job));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  // Every observed result matches the serial reference semantically.
  for (int t = 0; t < kThreads; ++t) {
    for (int round = 0; round < kRoundsPerThread; ++round) {
      const int which = (t + round) % kDistinct;
      const CompiledResult& got = *seen[t][round];
      const CompiledResult& want = *reference[which];
      ASSERT_EQ(got.outcome.feasible(), want.outcome.feasible());
      EXPECT_EQ(got.outcome.chosen_rung(), want.outcome.chosen_rung());
      EXPECT_EQ(got.outcome.schedule.rf, want.outcome.schedule.rf);
      EXPECT_EQ(got.predicted.total, want.predicted.total);
      EXPECT_EQ(got.predicted.data_words_loaded, want.predicted.data_words_loaded);
      EXPECT_EQ(got.predicted.data_words_stored, want.predicted.data_words_stored);
    }
  }
  const ScheduleCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads * kRoundsPerThread));
  // At most a handful of racing first-misses per distinct job; far more
  // hits than misses overall.
  EXPECT_GT(stats.hits, stats.misses);
  EXPECT_EQ(stats.entries, static_cast<std::uint64_t>(kDistinct));
}

}  // namespace
}  // namespace msys::engine
