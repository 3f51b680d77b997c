// Content-addressed memoization cache for compiled schedules.
//
// Keys are the canonical 64-bit job hashes from engine::cache_key — two
// jobs with the same key are semantically identical compilations, so a hit
// returns the previously computed CompiledResult by shared_ptr (entries
// carry their own keep-alive for the application/schedule they reference;
// see job.hpp).
//
// Concurrency: the key space is split across `shards` independently locked
// LRU maps (shard = mixed key bits), so concurrent lookups on different
// keys rarely contend on one mutex.  Each shard is LRU-bounded at
// capacity/shards entries.  Statistics are instance-level relaxed atomics
// (not per-shard structs): stats() is a lock-free read, and a named cache
// (Config::name) additionally mirrors every event into tagged obs
// counters ("engine.cache.<name>.*") so long-running processes can watch
// per-cache rates, not just the process-wide aggregate.
//
// Cold misses are *single-flight*: the first thread to miss on a key
// registers an in-flight entry and computes; every later arrival on the
// same key blocks on that entry's shared_future instead of recompiling
// (Stats::inflight_coalesced counts the recompiles avoided,
// Stats::inflight_waits the arrivals that actually had to block).  The
// winner inserts the result *before* retiring the in-flight entry, so
// there is no window in which a key is neither cached nor in flight.  On a
// cold batch of duplicated jobs this is the difference between negative
// and positive thread scaling: without it every worker that misses burns a
// full compile on work another worker is already doing.
//
// Persistence: a cache constructed with Config::store gains a disk tier.
// The single-flight winner consults the store before compiling (so a
// thundering herd on one key costs at most one disk read) and persists
// freshly computed, persistable results after inserting them; a payload
// that frames correctly but fails semantic decoding is quarantined exactly
// like a checksum failure and recomputed.  The store is strictly
// second-tier: memory hits never touch it.
//
// Cancellation: get_or_compile takes a CancelToken.  The winner threads it
// into the compute (compile_job's cooperative checkpoints); a *waiter*
// whose token fires while the winner is still computing stops waiting and
// returns nullptr — the caller synthesizes a structured timeout result.
// Cancelled results are never inserted into the cache or the store (the
// key stays retryable); waiters coalesced onto a winner still receive
// whatever the winner produced.
//
// insert() itself stays first-writer-wins for direct users: a duplicate
// insert is dropped but counted (Stats::duplicate_inserts — the
// wasted-compute signal a capacity planner watches; ~0 now that
// get_or_compile coalesces) and refreshes the entry's LRU recency: the
// duplicate insert IS a use of that entry, and before this refresh a hot
// entry hammered by concurrent compiles could be evicted as "cold"
// mid-storm.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "msys/common/cancel.hpp"
#include "msys/engine/job.hpp"
#include "msys/store/disk_store.hpp"

namespace msys::obs {
class Counter;
}  // namespace msys::obs

namespace msys::engine {

/// Where a get_or_compile result came from (cheapest to costliest).
enum class CacheTier : std::uint8_t { kMemory, kDisk, kCompute };

[[nodiscard]] const char* to_string(CacheTier tier);

class ScheduleCache {
 public:
  struct Config {
    Config() = default;
    Config(std::size_t capacity_in, std::size_t shards_in)
        : capacity(capacity_in), shards(shards_in) {}

    /// Total entry bound across all shards (>= 1 enforced).
    std::size_t capacity{1024};
    /// Independently locked LRU segments (>= 1 enforced; default suits a
    /// handful of worker threads).
    std::size_t shards{8};
    /// Optional persistent second tier (see file comment); shared so
    /// several caches/processes may point at one directory.
    std::shared_ptr<store::DiskScheduleStore> store;
    /// Non-empty => mirror stats into "engine.cache.<name>.*" obs
    /// counters, tagging this instance in long-run metrics snapshots.
    std::string name;
  };

  struct Stats {
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    std::uint64_t evictions{0};
    std::uint64_t inserts{0};
    /// insert() calls dropped because the key was already present — each
    /// one is a concurrent compilation whose work was thrown away.
    std::uint64_t duplicate_inserts{0};
    /// get_or_compile() misses that found the key already in flight and
    /// reused that computation — each one is a recompile avoided.
    std::uint64_t inflight_coalesced{0};
    /// Coalesced misses that actually blocked (the in-flight result was
    /// not ready yet when they arrived).
    std::uint64_t inflight_waits{0};
    /// Memory misses served by decoding a persisted entry (disk tier).
    std::uint64_t disk_hits{0};
    std::uint64_t entries{0};

    [[nodiscard]] double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
  };

  ScheduleCache() : ScheduleCache(Config()) {}
  explicit ScheduleCache(Config config);

  /// Returns the cached result for `key` (refreshing its LRU position), or
  /// nullptr on miss.  Counts one hit or one miss.  Memory tier only.
  [[nodiscard]] std::shared_ptr<const CompiledResult> lookup(std::uint64_t key);

  /// Inserts `result` under `key` unless the key is already present
  /// (first-writer-wins); evicts the shard's least-recently-used entry
  /// when the shard is at capacity.  A duplicate insert is dropped but
  /// counted (Stats::duplicate_inserts) and refreshes the existing
  /// entry's LRU recency.
  void insert(std::uint64_t key, std::shared_ptr<const CompiledResult> result);

  /// Memoized compile: lookup, compute-and-insert on miss, with the disk
  /// tier consulted between the two when configured.  Concurrent misses on
  /// one key are single-flight — exactly one caller runs compile_job, the
  /// rest block on its result.  `*was_hit` (optional) reports whether the
  /// result came from the in-memory cache (a coalesced wait or a disk hit
  /// reports a miss); `*tier` (optional) reports the serving tier.
  /// Returns nullptr only when `cancel` fired while this caller was
  /// waiting on another thread's computation.  `*store_degraded`
  /// (optional) reports that the disk probe exhausted its read retry
  /// budget — the job was recomputed because the store is *misbehaving*,
  /// not because the entry is absent (a driver surfaces this per job).
  /// `*inflight_wait_ns` (optional) reports the time this caller spent
  /// blocked on another thread's in-flight computation (0 unless it was a
  /// coalesced waiter) — reported separately so miss latency measures
  /// *this* caller's own work, not time parked behind the winner.
  [[nodiscard]] std::shared_ptr<const CompiledResult> get_or_compile(
      const Job& job, bool* was_hit = nullptr, const CancelToken& cancel = {},
      CacheTier* tier = nullptr, bool* store_degraded = nullptr,
      std::uint64_t* inflight_wait_ns = nullptr);

  /// The same, for a caller that already holds `key == cache_key(job)`
  /// (BatchRunner keys each job once and reports that key).
  [[nodiscard]] std::shared_ptr<const CompiledResult> get_or_compile(
      const Job& job, std::uint64_t key, bool* was_hit = nullptr,
      const CancelToken& cancel = {}, CacheTier* tier = nullptr,
      bool* store_degraded = nullptr, std::uint64_t* inflight_wait_ns = nullptr);

  /// Produces a result for a key on the first miss.  Must be pure with
  /// respect to the key: every caller racing on one key receives the one
  /// result the in-flight winner computed.  May return nullptr (e.g. a
  /// cancelled compute); nullptr is handed to waiters but never cached.
  using ComputeFn = std::function<std::shared_ptr<const CompiledResult>()>;

  /// Single-flight core, exposed for callers (and tests) that key jobs
  /// themselves: behaves exactly like get_or_compile(job) with
  /// `key == cache_key(job)` and `compute == [&]{ return compile_job(job); }`,
  /// except that the disk tier is NOT consulted (the caller's compute owns
  /// the whole miss path).
  [[nodiscard]] std::shared_ptr<const CompiledResult> get_or_compile(
      std::uint64_t key, const ComputeFn& compute, bool* was_hit = nullptr,
      const CancelToken& cancel = {}, std::uint64_t* inflight_wait_ns = nullptr);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// The disk tier, or nullptr when this cache is memory-only.
  [[nodiscard]] store::DiskScheduleStore* store() const { return config_.store.get(); }

 private:
  struct Entry {
    std::uint64_t key{0};
    std::shared_ptr<const CompiledResult> result;
  };
  /// One in-flight computation: waiters hold the shared_future, the winner
  /// fulfils the promise after inserting into the cache.
  struct InFlight {
    std::promise<std::shared_ptr<const CompiledResult>> promise;
    std::shared_future<std::shared_ptr<const CompiledResult>> future{
        promise.get_future().share()};
  };
  /// One locked LRU segment: list front == most recently used.  Statistics
  /// live on the instance (StatCells), not here.
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index;
    std::unordered_map<std::uint64_t, std::shared_ptr<InFlight>> inflight;
  };
  /// Instance-level event cells: relaxed atomics bumped lock-free from any
  /// shard, read wholesale by stats().
  struct StatCells {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> inserts{0};
    std::atomic<std::uint64_t> duplicate_inserts{0};
    std::atomic<std::uint64_t> inflight_coalesced{0};
    std::atomic<std::uint64_t> inflight_waits{0};
    std::atomic<std::uint64_t> disk_hits{0};
  };

  enum class Event : std::uint8_t {
    kHit,
    kMiss,
    kEviction,
    kInsert,
    kDuplicateInsert,
    kInflightCoalesced,
    kInflightWait,
    kDiskHit,
  };
  /// Bumps the instance cell, the process-wide counter and (when named)
  /// the tagged counter for one event.
  void count(Event event);

  [[nodiscard]] Shard& shard_for(std::uint64_t key);

  Config config_;
  std::size_t capacity_;
  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  StatCells cells_;
  /// Tagged per-instance counters, index == Event; empty when unnamed.
  std::vector<obs::Counter*> tagged_;
};

}  // namespace msys::engine
