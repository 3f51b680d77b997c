// Planning walk through one steady round of the schedule, following the
// paper's Figure 4 algorithm:
//
//   for each cluster c (in execution order):
//     allocate shared data first (top end, farthest-future sharer first)
//     allocate kernel input data, kernels last -> first (top end), RF
//       instances each
//     for each kernel k (cluster order), for iter = 1..RF:   [loop fission]
//       allocate k's results: shared (retained) results at the top,
//         final + intermediate results at the bottom
//       release everything that dies after (k, iter)
//     at cluster end: emit stores for outgoing results, release them,
//       release retained objects whose occupancy span ends at c
//
// Two walks run that one body (process_cluster in alloc_driver.cpp); they
// differ only in how an instance takes and returns FB words:
//
//   decision walk  (decide_round)  counts the live words of each FB set.
//                  It answers what the paper's RF and retention
//                  decisions ask: does every cluster's
//                  footprint fit its set, and which loads and stores does
//                  each cluster issue (all predict_cost reads).  It
//                  records no placements, extents or releases.
//   placement walk (plan_round)    places every instance with the set's
//                  FrameBufferAllocator (§5: dual-ended first-fit,
//                  regularity hints, splitting as a last resort) and also
//                  records placements, releases and an AllocSummary.  It
//                  runs only where a DataSchedule is built (to_schedule).
//
// Why the decision walk is exact.  Every walk allows splitting, so
// FrameBufferAllocator::allocate_into fails only when its set's
// free_words() < size (fb_allocator.cpp, step 3): the regularity hint,
// the fit policy and splitting choose *where* an instance goes, never
// *whether* it fits.  A placement walk therefore fits iff the live words
// of each set never exceed fb_set_size at an allocation, which is exactly
// the decision walk's test, for every fit policy and hint setting.  Both
// walks emit the same loads and stores, since neither depends on
// addresses, and a failing pair stops at the same allocation with the same
// fail_reason.  Both keep the walk's invariants: a zero-word request, a
// double allocation and a release of a dead instance throw, and the FB
// drains by round end.  tests/dsched/decision_walk_test.cpp checks the
// agreement over the fuzz corpus, Table 1 and the cold-compile family.
//
// Output layout: one flat plan from the walk to the simulator.  A cold
// schedule() runs ~10 decision walks and one placement walk, so the walks
// append their output to reusable PlanScratch vectors instead of building
// a DataSchedule:
//
//   plan                        a RoundPlan (schedule_types.hpp): one
//                               array each for loads, stores and releases,
//                               cluster after cluster, and each cluster's
//                               end offsets into them
//   placements                  one {key, set, extent_begin, extent_count}
//                               record per allocated instance
//   extent_pool                 every placement's extents, in allocation
//                               order (a release only zeroes the live
//                               slot, so the pool never loses an extent)
//
// A successful walk copies its arrays into a RoundDecision (decision walk:
// the plan, whose releases stay empty) or a DriverResult (placement walk:
// everything) with one exactly-sized allocation each; a failed one returns
// only ok and fail_reason (and, placed, the summary).  to_schedule() moves
// a DriverResult's arrays into the DataSchedule as they are, so the plan
// the walk emits is the plan codegen, the validator and the cost model
// read.  Only a DriverResult converts to a DataSchedule, so to_schedule()
// cannot be handed a decision.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "msys/alloc/fb_allocator.hpp"
#include "msys/common/arena.hpp"
#include "msys/dsched/schedule_types.hpp"
#include "msys/extract/analysis.hpp"

namespace msys::dsched {

/// Reusable scratch memory for both walks.  A cold schedule() runs the
/// Figure-4 walk many times (RF probes, the cost scan, retention's prefix
/// probes, the placement of the winner); the scratch keeps the walk's live
/// table in arena storage and its output in vectors that are cleared per
/// walk but keep their capacity, so a steady-state walk allocates only the
/// flat copy of a successful result.
/// Not thread-safe: one per PlanCache / schedule() call (concurrent
/// compiles each own their own, which is what makes the cold batch path
/// scale instead of serializing on the global allocator).
struct PlanScratch {
  Arena arena;
  /// Extents of every FB placement of the walk; the live table and the
  /// placement records index into it.
  std::vector<Extent> extent_pool;
  RoundPlan plan;
  std::vector<PlacementRecord> placements;
};

struct DriverOptions {
  std::uint32_t rf{1};
  extract::RetainedSet retained;
  /// True (DS/CDS): objects are released right after their last in-cluster
  /// use (§3's replacement policy).  False (Basic Scheduler [3]): nothing
  /// is released before the cluster ends, so the cluster needs space for
  /// all of its data and results simultaneously.
  bool release_at_last_use{true};
  /// Retry the previous iteration's neighbouring address first (§5's
  /// regularity policy).  Off only in the allocation ablation and the
  /// allocator tests, which also vary `fit`.  Placement only, like `fit`:
  /// no decision depends on them.
  bool regularity_hints{true};
  alloc::FitPolicy fit{alloc::FitPolicy::kFirstFit};
};

/// The outcome of a decision walk: the round plan, without releases.
/// The plan is empty unless `ok`.
struct RoundDecision {
  bool ok{false};
  std::string fail_reason;
  RoundPlan plan;
};

/// The outcome of a placement walk: the decision, with every release, plus
/// every placement.  Empty unless `ok`, apart from `summary`.
struct DriverResult : RoundDecision {
  AllocSummary summary;
  /// Every allocated instance, in allocation order.
  std::vector<PlacementRecord> placements;
  /// Every placement's extents; each record names its own range.
  std::vector<Extent> extents;
};

/// The decision walk over one steady round (RF iterations of every
/// cluster) against two `fb_set_size`-word FB sets: ok, fail_reason and
/// the per-cluster loads and stores.  Counted by `dsched.plan.rounds`.
/// `scratch` is reset on entry and reused across calls.
[[nodiscard]] RoundDecision decide_round(const extract::ScheduleAnalysis& analysis,
                                         SizeWords fb_set_size, const DriverOptions& options,
                                         PlanScratch& scratch);

/// The placement walk over the same round, against `fb_set_size`-word
/// allocators for both FB sets.  Counted by `dsched.plan.placements`.
[[nodiscard]] DriverResult plan_round(const extract::ScheduleAnalysis& analysis,
                                      SizeWords fb_set_size, const DriverOptions& options,
                                      PlanScratch& scratch);

/// Convenience overload with call-local scratch (tests, one-shot plans).
[[nodiscard]] DriverResult plan_round(const extract::ScheduleAnalysis& analysis,
                                      SizeWords fb_set_size, const DriverOptions& options);

/// Builds the DataSchedule of a successful placement walk planned with
/// `options`: the walk's plan, placement records (sorted by key in place)
/// and extent array, moved in.  The only place a walk becomes a schedule.
[[nodiscard]] DataSchedule to_schedule(DriverResult&& result, std::string scheduler_name,
                                       const model::KernelSchedule& sched,
                                       const DriverOptions& options);

}  // namespace msys::dsched
