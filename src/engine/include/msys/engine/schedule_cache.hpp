// Content-addressed memoization cache for compiled schedules.
//
// Keys are the canonical 64-bit job hashes from engine::cache_key — two
// jobs with the same key are semantically identical compilations, so a hit
// returns the previously computed CompiledResult by shared_ptr (entries
// carry their own keep-alive for the application/schedule they reference;
// see job.hpp).
//
// Concurrency: one mutex guards the LRU map and the in-flight map; the
// cache holds at most kCapacity entries.  Statistics are instance-level
// relaxed atomics, so stats() reads them without the lock, and every event
// is mirrored into the process-wide "engine.cache.*" obs counters.
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
// Persistence: a cache constructed with a store gains a disk tier.
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
#include <unordered_map>

#include "msys/common/cancel.hpp"
#include "msys/engine/job.hpp"
#include "msys/store/disk_store.hpp"

namespace msys::engine {

/// Where a get_or_compile result came from (cheapest to costliest).
enum class CacheTier : std::uint8_t { kMemory, kDisk, kCompute };

[[nodiscard]] const char* to_string(CacheTier tier);

class ScheduleCache {
 public:
  /// Entry bound: the least-recently-used entry is evicted beyond it.
  static constexpr std::size_t kCapacity = 1024;

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

  /// `store`, when given, is the persistent second tier (see file
  /// comment); shared so several caches may point at one directory.
  explicit ScheduleCache(std::shared_ptr<store::DiskScheduleStore> store = nullptr);

  /// Returns the cached result for `key` (refreshing its LRU position), or
  /// nullptr on miss.  Counts one hit or one miss.  Memory tier only.
  [[nodiscard]] std::shared_ptr<const CompiledResult> lookup(std::uint64_t key);

  /// Inserts `result` under `key` unless the key is already present
  /// (first-writer-wins); evicts the least-recently-used entry when the
  /// cache is at kCapacity.  A duplicate insert is dropped but counted
  /// (Stats::duplicate_inserts) and refreshes the existing entry's LRU
  /// recency.
  void insert(std::uint64_t key, std::shared_ptr<const CompiledResult> result);

  /// Memoized compile: lookup, compute-and-insert on miss, with the disk
  /// tier consulted between the two when configured.  Concurrent misses on
  /// one key are single-flight — exactly one caller runs compile_job, the
  /// rest block on its result.  `*tier` (optional) reports the serving
  /// tier: kMemory for a hit, kDisk when this caller decoded a persisted
  /// entry, kCompute for a fresh compile or a coalesced wait.
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
      const Job& job, const CancelToken& cancel = {}, CacheTier* tier = nullptr,
      bool* store_degraded = nullptr, std::uint64_t* inflight_wait_ns = nullptr);

  /// The same, for a caller that already holds `key == cache_key(job)`
  /// (BatchRunner keys each job once and reports that key).
  [[nodiscard]] std::shared_ptr<const CompiledResult> get_or_compile(
      const Job& job, std::uint64_t key, const CancelToken& cancel = {},
      CacheTier* tier = nullptr, bool* store_degraded = nullptr,
      std::uint64_t* inflight_wait_ns = nullptr);

  /// Produces a result for a key on the first miss.  Must be pure with
  /// respect to the key: every caller racing on one key receives the one
  /// result the in-flight winner computed.  May return nullptr (e.g. a
  /// cancelled compute); nullptr is handed to waiters but never cached.
  using ComputeFn = std::function<std::shared_ptr<const CompiledResult>()>;

  /// Single-flight core, exposed for callers (and tests) that key jobs
  /// themselves: behaves exactly like get_or_compile(job) with
  /// `key == cache_key(job)` and `compute == [&]{ return compile_job(job); }`,
  /// except that the disk tier is NOT consulted (the caller's compute owns
  /// the whole miss path), so `*tier` is kMemory or kCompute.
  [[nodiscard]] std::shared_ptr<const CompiledResult> get_or_compile(
      std::uint64_t key, const ComputeFn& compute, CacheTier* tier = nullptr,
      const CancelToken& cancel = {}, std::uint64_t* inflight_wait_ns = nullptr);

  [[nodiscard]] Stats stats() const;

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
  /// Event cells: relaxed atomics bumped without the lock, read wholesale
  /// by stats().
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

  std::shared_ptr<store::DiskScheduleStore> store_;
  mutable std::mutex mu_;
  /// Front == most recently used.
  std::list<Entry> lru_;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::unordered_map<std::uint64_t, std::shared_ptr<InFlight>> inflight_;
  StatCells cells_;
};

}  // namespace msys::engine
