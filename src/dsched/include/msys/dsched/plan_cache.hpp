// Memoization of the decision walk over one scheduler run or pipeline.
//
// A single cold schedule() performs many decision walks over a small
// option space: compute_max_rf probes RF feasibility, pick_rf_by_cost
// prices every candidate RF, and §4's retention walks the remaining
// candidates and binary-searches the longest prefix that fits whenever
// they do not (one walk per candidate with cross-set reads).  Several of
// those calls repeat an (RF, retained-set) pair already walked — most
// notably the re-plan at the chosen RF, and the empty-retained-set walk at
// each RF the feasibility search already probed.  A pipeline's rungs
// share one PlanCache, and a DS or CDS that does not fit reads its RF-1
// walk's failure reason back as a hit.  PlanCache memoizes the decision
// walk on exactly what it depends on — RF, the retained set and
// release_at_last_use; the fit policy and regularity hints steer only the
// placement walk — so identical decisions return the stored RoundDecision
// instead of re-running an O(clusters · kernels · RF) walk.  Each entry
// also memoizes its predicted total cycles, computed on its first price().
//
// decide_round is a pure function of (analysis, fb_set_size, options), so
// a memo hit is byte-identical to a recompute — the schedulers' outputs
// are provably unchanged (tests/dsched/rf_search_property_test.cpp replays
// the fuzz corpus against unmemoized references).
//
// What the memo holds: RoundDecisions (see alloc_driver.hpp) — per
// successful walk one RoundPlan, the type a DataSchedule ships, with its
// cluster ends, loads and stores in three exactly-sized arrays and no
// releases; only ok/fail_reason for a failed one.  No DataSchedule is
// built from them; schedule() runs the one placement walk a scheduler
// ships and moves its plan in.
//
// Scope: one PlanCache per schedule() call or pipeline, on the
// stack.  Not thread-safe; concurrent compiles each own their cache.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "msys/arch/m1.hpp"
#include "msys/csched/context_plan.hpp"
#include "msys/dsched/alloc_driver.hpp"
#include "msys/extract/analysis.hpp"

namespace msys::dsched {

class PlanCache {
 public:
  /// Default entry bound, sized for one greedy schedule() walk.  Heavier
  /// clients (the annealer replans thousands of mutated option sets per
  /// island) pass their own `capacity`.
  static constexpr std::size_t kDefaultCapacity = 4096;

  PlanCache(const extract::ScheduleAnalysis& analysis, const arch::M1Config& cfg,
            std::size_t capacity = kDefaultCapacity)
      : analysis_(&analysis), cfg_(cfg), capacity_(capacity) {}
  /// Flushes the hit/miss/eviction tallies to the process-wide obs
  /// counters — one batched add per cache instead of an atomic RMW on
  /// shared cache lines per lookup.
  ~PlanCache();

  /// The memoized decision walk for `options`; computes and stores on
  /// miss.  Reference lifetime: valid until the cache is destroyed or the
  /// next lookup that misses past the entry bound (which overwrites the
  /// overflow slot), so read it before looking up again when the cache
  /// may be full.
  [[nodiscard]] const RoundDecision& decide(const DriverOptions& options);

  /// Predicted total cycles (predict_cost) of the decision walk for
  /// `options`; nullopt when the walk does not fit or the machine's
  /// context plan is infeasible.  One lookup, priced once per entry.
  [[nodiscard]] std::optional<Cycles> price(const DriverOptions& options);

  /// The DataSchedule of `options`, which must decide feasible: one
  /// placement walk (not memoized; a scheduler ships one schedule), turned
  /// into a schedule by to_schedule().
  [[nodiscard]] DataSchedule schedule(const DriverOptions& options, std::string scheduler_name);

  [[nodiscard]] const extract::ScheduleAnalysis& analysis() const { return *analysis_; }
  /// The context plan price() runs on, built on first use (a chain that
  /// fails at RF 1 never needs it).
  [[nodiscard]] const csched::ContextPlan& context_plan();

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
  /// Everything the decision walk reads of DriverOptions.  The
  /// bitset-backed retained set is order-independent by construction, so
  /// the key is a straight copy — no sort, no index vector — and hashing
  /// streams its words.
  struct Key {
    std::uint32_t rf{0};
    bool release_at_last_use{true};
    extract::RetainedSet retained;

    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& k) const;
  };
  struct Entry {
    RoundDecision decision;
    /// price()'s memo: set on the first price() of the entry.
    bool priced{false};
    std::optional<Cycles> total;
  };

  [[nodiscard]] Entry& entry(const DriverOptions& options);

  const extract::ScheduleAnalysis* analysis_;
  arch::M1Config cfg_;
  /// Entry bound: past it, results are computed into `overflow_` instead
  /// of stored (counted as evictions), so a degenerate option space cannot
  /// hold every walk ever planned in memory.
  std::size_t capacity_;
  std::unordered_map<Key, Entry, KeyHash> memo_;
  Entry overflow_;
  std::optional<csched::ContextPlan> ctx_plan_;
  Stats stats_;
  /// Walk scratch reused across every walk this cache issues; the cache's
  /// single-thread scope is exactly the arena's.
  PlanScratch scratch_;
};

}  // namespace msys::dsched
