#include "msys/engine/schedule_cache.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "msys/engine/result_codec.hpp"
#include "msys/obs/metrics.hpp"
#include "msys/obs/trace.hpp"

namespace msys::engine {

namespace {

/// Global mirrors of the per-instance stats plus the hit/miss latency sums
/// the bench and `msysc --stats` report (sums + counts; consumers divide).
struct CacheMetrics {
  obs::Counter& hits = obs::counter("engine.cache.hits");
  obs::Counter& misses = obs::counter("engine.cache.misses");
  obs::Counter& inserts = obs::counter("engine.cache.inserts");
  obs::Counter& duplicate_inserts = obs::counter("engine.cache.duplicate_inserts");
  obs::Counter& inflight_coalesced = obs::counter("engine.cache.inflight_coalesced");
  obs::Counter& inflight_waits = obs::counter("engine.cache.inflight_waits");
  obs::Counter& evictions = obs::counter("engine.cache.evictions");
  obs::Counter& disk_hits = obs::counter("engine.cache.disk_hits");
  obs::Counter& wait_cancelled = obs::counter("engine.cache.wait_cancelled");
  obs::Counter& hit_latency_ns = obs::counter("engine.cache.hit_latency_ns");
  /// Miss latency is the caller's *own* work (disk probe + compile, or
  /// collecting a ready coalesced result); time spent blocked behind
  /// another thread's in-flight compile accrues to inflight_wait_ns
  /// instead.  Summing both reconstructs the old wall-clock figure.
  obs::Counter& miss_latency_ns = obs::counter("engine.cache.miss_latency_ns");
  obs::Counter& inflight_wait_ns = obs::counter("engine.cache.inflight_wait_ns");

  static CacheMetrics& get() {
    static CacheMetrics metrics;
    return metrics;
  }
};

constexpr const char* kEventNames[] = {
    "hits",      "misses",           "evictions",          "inserts",
    "duplicate_inserts", "inflight_coalesced", "inflight_waits", "disk_hits",
};

std::uint64_t ns_since(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - start)
                                        .count());
}

}  // namespace

const char* to_string(CacheTier tier) {
  switch (tier) {
    case CacheTier::kMemory: return "memory";
    case CacheTier::kDisk: return "disk";
    case CacheTier::kCompute: return "compute";
  }
  return "?";
}

ScheduleCache::ScheduleCache(Config config) : config_(std::move(config)) {
  capacity_ = std::max<std::size_t>(1, config_.capacity);
  const std::size_t n_shards =
      std::min(std::max<std::size_t>(1, config_.shards), capacity_);
  per_shard_capacity_ = (capacity_ + n_shards - 1) / n_shards;
  shards_.reserve(n_shards);
  for (std::size_t i = 0; i < n_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (!config_.name.empty()) {
    // Tagged mirrors: one obs counter per event, named once here; count()
    // then bumps by index with no name lookups on the hot path.
    tagged_.reserve(std::size(kEventNames));
    for (const char* event : kEventNames) {
      tagged_.push_back(
          &obs::counter("engine.cache." + config_.name + "." + event));
    }
  }
}

void ScheduleCache::count(Event event) {
  auto& m = CacheMetrics::get();
  switch (event) {
    case Event::kHit:
      cells_.hits.fetch_add(1, std::memory_order_relaxed);
      m.hits.add();
      break;
    case Event::kMiss:
      cells_.misses.fetch_add(1, std::memory_order_relaxed);
      m.misses.add();
      break;
    case Event::kEviction:
      cells_.evictions.fetch_add(1, std::memory_order_relaxed);
      m.evictions.add();
      break;
    case Event::kInsert:
      cells_.inserts.fetch_add(1, std::memory_order_relaxed);
      m.inserts.add();
      break;
    case Event::kDuplicateInsert:
      cells_.duplicate_inserts.fetch_add(1, std::memory_order_relaxed);
      m.duplicate_inserts.add();
      break;
    case Event::kInflightCoalesced:
      cells_.inflight_coalesced.fetch_add(1, std::memory_order_relaxed);
      m.inflight_coalesced.add();
      break;
    case Event::kInflightWait:
      cells_.inflight_waits.fetch_add(1, std::memory_order_relaxed);
      m.inflight_waits.add();
      break;
    case Event::kDiskHit:
      cells_.disk_hits.fetch_add(1, std::memory_order_relaxed);
      m.disk_hits.add();
      break;
  }
  if (!tagged_.empty()) tagged_[static_cast<std::size_t>(event)]->add();
}

ScheduleCache::Shard& ScheduleCache::shard_for(std::uint64_t key) {
  // cache_key finalizes through splitmix64, so any bit range is well
  // mixed; fold high into low to stay shard-count-agnostic.
  return *shards_[(key ^ (key >> 32)) % shards_.size()];
}

std::shared_ptr<const CompiledResult> ScheduleCache::lookup(std::uint64_t key) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    count(Event::kMiss);
    return nullptr;
  }
  count(Event::kHit);
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->result;
}

void ScheduleCache::insert(std::uint64_t key,
                           std::shared_ptr<const CompiledResult> result) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // First writer wins, but the loser's insert is still a *use* of the
    // entry: count it and refresh recency so a hot key under concurrent
    // double-compute cannot age to the LRU tail invisibly.
    count(Event::kDuplicateInsert);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= per_shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    count(Event::kEviction);
  }
  shard.lru.push_front(Entry{key, std::move(result)});
  shard.index.emplace(key, shard.lru.begin());
  count(Event::kInsert);
}

std::shared_ptr<const CompiledResult> ScheduleCache::get_or_compile(
    const Job& job, bool* was_hit, const CancelToken& cancel, CacheTier* tier,
    bool* store_degraded, std::uint64_t* inflight_wait_ns) {
  return get_or_compile(job, cache_key(job), was_hit, cancel, tier, store_degraded,
                        inflight_wait_ns);
}

std::shared_ptr<const CompiledResult> ScheduleCache::get_or_compile(
    const Job& job, std::uint64_t key, bool* was_hit, const CancelToken& cancel,
    CacheTier* tier, bool* store_degraded, std::uint64_t* inflight_wait_ns) {
  store::DiskScheduleStore* disk = config_.store.get();
  CacheTier served = CacheTier::kCompute;
  if (store_degraded != nullptr) *store_degraded = false;
  // The disk probe runs inside the single-flight compute, so a thundering
  // herd on one key costs at most one disk read + decode, and a coalesced
  // waiter can receive a disk-decoded result transparently.
  std::shared_ptr<const CompiledResult> result = get_or_compile(
      key,
      [&]() -> std::shared_ptr<const CompiledResult> {
        if (disk != nullptr) {
          store::LoadStatus load_status = store::LoadStatus::kMiss;
          if (std::optional<std::string> payload =
                  disk->load(key, cancel, &load_status)) {
            if (auto decoded = decode_result(*payload, job)) {
              served = CacheTier::kDisk;
              count(Event::kDiskHit);
              return decoded;
            }
            // Framed fine, decoded wrong: semantically corrupt — same
            // contract as a checksum failure.
            disk->quarantine(key);
          } else if (load_status == store::LoadStatus::kExhausted &&
                     store_degraded != nullptr) {
            // Only the single-flight winner probes the disk, so only it
            // can observe the exhaustion; coalesced waiters report clean.
            *store_degraded = true;
          }
        }
        auto computed = compile_job(job, cancel);
        if (disk != nullptr && computed != nullptr && persistable(*computed)) {
          // Best-effort: a failed save leaves the entry absent, nothing more.
          (void)disk->save(key, encode_result(*computed), cancel);
        }
        return computed;
      },
      was_hit, cancel, inflight_wait_ns);
  if (tier != nullptr) {
    *tier = (was_hit != nullptr && *was_hit) ? CacheTier::kMemory : served;
  }
  return result;
}

std::shared_ptr<const CompiledResult> ScheduleCache::get_or_compile(
    std::uint64_t key, const ComputeFn& compute, bool* was_hit,
    const CancelToken& cancel, std::uint64_t* inflight_wait_ns) {
  const auto start = std::chrono::steady_clock::now();
  Shard& shard = shard_for(key);
  if (was_hit != nullptr) *was_hit = false;
  if (inflight_wait_ns != nullptr) *inflight_wait_ns = 0;

  // One lock acquisition decides the path: hit, coalesce onto an in-flight
  // computation, or become the in-flight winner for this key.
  std::shared_future<std::shared_ptr<const CompiledResult>> wait_on;
  std::shared_ptr<InFlight> mine;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      count(Event::kHit);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      std::shared_ptr<const CompiledResult> cached = it->second->result;
      CacheMetrics::get().hit_latency_ns.add(ns_since(start));
      if (was_hit != nullptr) *was_hit = true;
      return cached;
    }
    count(Event::kMiss);
    const auto fit = shard.inflight.find(key);
    if (fit != shard.inflight.end()) {
      wait_on = fit->second->future;
      count(Event::kInflightCoalesced);
    } else {
      mine = std::make_shared<InFlight>();
      shard.inflight.emplace(key, mine);
    }
  }

  if (wait_on.valid()) {
    // Coalesced miss: reuse the winner's computation.  Only count (and
    // trace) a wait when the result is not ready yet.  Blocked time is
    // accounted to inflight_wait_ns, NOT to miss latency: parking behind
    // the winner is queueing, not compile cost, and folding it into
    // avg_miss_ms made cold parallel batches look slower per miss than
    // the serial compiles they replaced.
    std::uint64_t waited_ns = 0;
    if (wait_on.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      count(Event::kInflightWait);
      const auto wait_start = std::chrono::steady_clock::now();
      MSYS_TRACE_SPAN(wait_span, "engine.cache.inflight_wait", "engine");
      if (cancel.can_cancel()) {
        // Poll so a deadline firing mid-wait frees this caller: the winner
        // keeps computing (its work still lands in the cache), but *we*
        // stop burning our budget on it and report the cancellation.
        while (wait_on.wait_for(std::chrono::milliseconds(2)) !=
               std::future_status::ready) {
          if (cancel.cancelled()) {
            waited_ns = ns_since(wait_start);
            CacheMetrics::get().inflight_wait_ns.add(waited_ns);
            if (inflight_wait_ns != nullptr) *inflight_wait_ns = waited_ns;
            CacheMetrics::get().wait_cancelled.add();
            return nullptr;
          }
        }
      } else {
        wait_on.wait();
      }
      waited_ns = ns_since(wait_start);
      CacheMetrics::get().inflight_wait_ns.add(waited_ns);
      if (inflight_wait_ns != nullptr) *inflight_wait_ns = waited_ns;
    }
    std::shared_ptr<const CompiledResult> result = wait_on.get();
    const std::uint64_t total = ns_since(start);
    CacheMetrics::get().miss_latency_ns.add(total > waited_ns ? total - waited_ns : 0);
    return result;
  }

  // In-flight winner: compute outside the lock, publish to the cache
  // *before* retiring the in-flight entry so there is no window in which
  // the key is neither cached nor in flight.
  std::shared_ptr<const CompiledResult> computed;
  try {
    computed = compute();
  } catch (...) {
    // Never strand waiters: retire the entry and hand the exception to
    // everyone already blocked on the future.
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.inflight.erase(key);
    }
    mine->promise.set_exception(std::current_exception());
    throw;
  }
  // A cancelled (or absent) result reflects this run's budget, not the
  // key's semantics: hand it to the waiters already coalesced onto us, but
  // leave the cache empty so the next caller retries the compile.
  const bool cacheable =
      computed != nullptr && !computed->outcome.cancelled() &&
      !computed->outcome.schedule.cancelled;
  if (cacheable) insert(key, computed);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.inflight.erase(key);
  }
  mine->promise.set_value(computed);
  CacheMetrics::get().miss_latency_ns.add(ns_since(start));
  return computed;
}

ScheduleCache::Stats ScheduleCache::stats() const {
  Stats total;
  total.hits = cells_.hits.load(std::memory_order_relaxed);
  total.misses = cells_.misses.load(std::memory_order_relaxed);
  total.evictions = cells_.evictions.load(std::memory_order_relaxed);
  total.inserts = cells_.inserts.load(std::memory_order_relaxed);
  total.duplicate_inserts = cells_.duplicate_inserts.load(std::memory_order_relaxed);
  total.inflight_coalesced = cells_.inflight_coalesced.load(std::memory_order_relaxed);
  total.inflight_waits = cells_.inflight_waits.load(std::memory_order_relaxed);
  total.disk_hits = cells_.disk_hits.load(std::memory_order_relaxed);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.entries += shard->lru.size();
  }
  return total;
}

}  // namespace msys::engine
