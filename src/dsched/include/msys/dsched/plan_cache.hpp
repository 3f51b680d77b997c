// Memoization of the Figure-4 planning walk over one scheduler run.
//
// A single cold schedule() performs many plan_round calls over a small
// option space: compute_max_rf probes RF feasibility, pick_rf_by_cost
// re-plans every candidate RF, and §4's retention walks the remaining
// candidates and binary-searches the longest prefix that fits whenever
// they do not (one walk per candidate with cross-set reads).  Several of
// those calls repeat an (RF, retained-set) pair the walk has already
// planned — most notably the final re-plan at the chosen RF, and the
// empty-retained-set plan at each RF the feasibility search already
// probed.  PlanCache memoizes the walk on exactly the options that vary
// within one schedule() call (RF, the retained set, and the driver
// flags), so identical options return the stored DriverResult instead of
// re-running an O(clusters · kernels · RF) walk that drives the
// allocator.
//
// plan_round is a pure function of (analysis, fb_set_size, options), so a
// memo hit is byte-identical to a recompute — the schedulers' outputs are
// provably unchanged (tests/dsched/rf_search_property_test.cpp replays the
// fuzz corpus against unmemoized references).
//
// What the memo holds: flat DriverResults (see alloc_driver.hpp) — six
// exactly-sized arrays per successful walk, and only ok/fail_reason/summary
// for a failed one.  No DataSchedule is built here; callers price a walk
// through the reference plan() returns and turn at most one into a
// schedule with to_schedule().
//
// Scope: one PlanCache per schedule() call, on the stack.  Not
// thread-safe; concurrent schedule() calls each own their cache.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "msys/dsched/alloc_driver.hpp"
#include "msys/extract/analysis.hpp"

namespace msys::dsched {

class PlanCache {
 public:
  /// Default entry bound, sized for one greedy schedule() walk.  Heavier
  /// clients (the annealer replans thousands of mutated option sets per
  /// island) pass their own `capacity`.
  static constexpr std::size_t kDefaultCapacity = 4096;

  PlanCache(const extract::ScheduleAnalysis& analysis, SizeWords fb_set_size,
            std::size_t capacity = kDefaultCapacity)
      : analysis_(&analysis), fb_set_size_(fb_set_size), capacity_(capacity) {}
  /// Flushes the hit/miss/eviction tallies to the process-wide obs
  /// counters — one batched add per schedule() instead of an atomic RMW on
  /// shared cache lines per plan() call.
  ~PlanCache();

  /// The memoized Figure-4 walk for `options`; computes and stores on
  /// miss.  Reference lifetime: valid until the cache is destroyed or the
  /// next plan() call that misses past the entry bound (which overwrites
  /// the overflow slot), so read or to_schedule() it before planning again
  /// when the cache may be full.
  [[nodiscard]] const DriverResult& plan(const DriverOptions& options);

  struct Stats {
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    /// Walks computed but *not* memoized because the cache was at
    /// capacity: every one is a future miss the bound forced.  Mirrored to
    /// the `dsched.plan_cache.evictions` counter, so a capacity that is
    /// silently too small for its workload shows up in --stats.
    std::uint64_t evictions{0};
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

 private:
  /// Everything of DriverOptions that varies within one scheduler run.
  /// The bitset-backed retained set is order-independent by construction,
  /// so the key is a straight copy — no sort, no index vector — and
  /// hashing streams its words.
  struct Key {
    std::uint32_t rf{0};
    std::uint8_t flags{0};
    extract::RetainedSet retained;

    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& k) const;
  };

  [[nodiscard]] static Key make_key(const DriverOptions& options);

  const extract::ScheduleAnalysis* analysis_;
  SizeWords fb_set_size_;
  /// Entry bound: past it, results are computed into `overflow_` instead
  /// of stored (counted as evictions), so a degenerate option space cannot
  /// hold every walk ever planned in memory.
  std::size_t capacity_;
  std::unordered_map<Key, DriverResult, KeyHash> memo_;
  DriverResult overflow_;
  Stats stats_;
  /// Walk scratch reused across every plan_round this cache issues; the
  /// cache's single-schedule(), single-thread scope is exactly the arena's.
  PlanScratch scratch_;
};

}  // namespace msys::dsched
