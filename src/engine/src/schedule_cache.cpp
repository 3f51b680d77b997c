#include "msys/engine/schedule_cache.hpp"

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

/// Bumps one instance cell and its process-wide mirror.
void bump(std::atomic<std::uint64_t>& cell, obs::Counter& mirror) {
  cell.fetch_add(1, std::memory_order_relaxed);
  mirror.add();
}

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

ScheduleCache::ScheduleCache(std::shared_ptr<store::DiskScheduleStore> store)
    : store_(std::move(store)) {}

std::shared_ptr<const CompiledResult> ScheduleCache::lookup(std::uint64_t key) {
  auto& m = CacheMetrics::get();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    bump(cells_.misses, m.misses);
    return nullptr;
  }
  bump(cells_.hits, m.hits);
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->result;
}

void ScheduleCache::insert(std::uint64_t key,
                           std::shared_ptr<const CompiledResult> result) {
  auto& m = CacheMetrics::get();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // First writer wins, but the loser's insert is still a *use* of the
    // entry: count it and refresh recency so a hot key under concurrent
    // double-compute cannot age to the LRU tail invisibly.
    bump(cells_.duplicate_inserts, m.duplicate_inserts);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= kCapacity) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    bump(cells_.evictions, m.evictions);
  }
  lru_.push_front(Entry{key, std::move(result)});
  index_.emplace(key, lru_.begin());
  bump(cells_.inserts, m.inserts);
}

std::shared_ptr<const CompiledResult> ScheduleCache::get_or_compile(
    const Job& job, const CancelToken& cancel, CacheTier* tier, bool* store_degraded,
    std::uint64_t* inflight_wait_ns) {
  return get_or_compile(job, cache_key(job), cancel, tier, store_degraded,
                        inflight_wait_ns);
}

std::shared_ptr<const CompiledResult> ScheduleCache::get_or_compile(
    const Job& job, std::uint64_t key, const CancelToken& cancel, CacheTier* tier,
    bool* store_degraded, std::uint64_t* inflight_wait_ns) {
  store::DiskScheduleStore* disk = store_.get();
  // The core reports memory vs compute; `served` records a disk decode by
  // this caller's own compute.
  CacheTier core_tier = CacheTier::kCompute;
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
              bump(cells_.disk_hits, CacheMetrics::get().disk_hits);
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
      &core_tier, cancel, inflight_wait_ns);
  if (tier != nullptr) *tier = core_tier == CacheTier::kMemory ? CacheTier::kMemory : served;
  return result;
}

std::shared_ptr<const CompiledResult> ScheduleCache::get_or_compile(
    std::uint64_t key, const ComputeFn& compute, CacheTier* tier,
    const CancelToken& cancel, std::uint64_t* inflight_wait_ns) {
  const auto start = std::chrono::steady_clock::now();
  auto& m = CacheMetrics::get();
  if (tier != nullptr) *tier = CacheTier::kCompute;
  if (inflight_wait_ns != nullptr) *inflight_wait_ns = 0;

  // One lock acquisition decides the path: hit, coalesce onto an in-flight
  // computation, or become the in-flight winner for this key.
  std::shared_future<std::shared_ptr<const CompiledResult>> wait_on;
  std::shared_ptr<InFlight> mine;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      bump(cells_.hits, m.hits);
      lru_.splice(lru_.begin(), lru_, it->second);
      std::shared_ptr<const CompiledResult> cached = it->second->result;
      m.hit_latency_ns.add(ns_since(start));
      if (tier != nullptr) *tier = CacheTier::kMemory;
      return cached;
    }
    bump(cells_.misses, m.misses);
    const auto fit = inflight_.find(key);
    if (fit != inflight_.end()) {
      wait_on = fit->second->future;
      bump(cells_.inflight_coalesced, m.inflight_coalesced);
    } else {
      mine = std::make_shared<InFlight>();
      inflight_.emplace(key, mine);
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
      bump(cells_.inflight_waits, m.inflight_waits);
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
            m.inflight_wait_ns.add(waited_ns);
            if (inflight_wait_ns != nullptr) *inflight_wait_ns = waited_ns;
            m.wait_cancelled.add();
            return nullptr;
          }
        }
      } else {
        wait_on.wait();
      }
      waited_ns = ns_since(wait_start);
      m.inflight_wait_ns.add(waited_ns);
      if (inflight_wait_ns != nullptr) *inflight_wait_ns = waited_ns;
    }
    std::shared_ptr<const CompiledResult> result = wait_on.get();
    const std::uint64_t total = ns_since(start);
    m.miss_latency_ns.add(total > waited_ns ? total - waited_ns : 0);
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
      std::lock_guard<std::mutex> lock(mu_);
      inflight_.erase(key);
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
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(key);
  }
  mine->promise.set_value(computed);
  m.miss_latency_ns.add(ns_since(start));
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
  std::lock_guard<std::mutex> lock(mu_);
  total.entries = lru_.size();
  return total;
}

}  // namespace msys::engine
