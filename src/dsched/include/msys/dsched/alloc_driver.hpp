// Planning walk that drives the Frame Buffer allocator through one steady
// round of the schedule, following the paper's Figure 4 algorithm:
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
// The walk both *plans* (produces the load/store lists and the placement of
// every object instance) and *verifies* (fails cleanly when the round does
// not fit the FB sets), so the schedulers use it as the ground-truth
// feasibility check for RF and retention decisions.
//
// Output layout: flat result, schedule built once.  A cold schedule()
// runs the walk ~10 times, and all but the last only ask "does it fit?"
// or feed the cost model, so the walk appends its output to reusable
// PlanScratch vectors instead of building a DataSchedule:
//
//   loads / stores / releases   one array each, cluster after cluster;
//                               cluster_ends[c] holds the end offsets of
//                               cluster c (its begin is cluster c-1's end)
//   placements                  one {key, set, extent_begin, extent_count}
//                               record per allocated instance
//   extent_pool                 every placement's extents, in allocation
//                               order (a release only zeroes the live
//                               slot, so the pool never loses an extent)
//
// A successful walk copies those arrays into a DriverResult with one
// exactly-sized allocation each; a failed one returns only ok,
// fail_reason and summary.  to_schedule() turns the one result a
// scheduler ships into a DataSchedule (round_plan vectors and the
// placements map); every other walk is priced or discarded as is.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "msys/alloc/fb_allocator.hpp"
#include "msys/common/arena.hpp"
#include "msys/dsched/schedule_types.hpp"
#include "msys/extract/analysis.hpp"

namespace msys::dsched {

/// Where one allocated object instance lives: `key` is
/// DataSchedule::key(allocating cluster, instance) and the extents are
/// [extent_begin, extent_begin + extent_count) of the owning extent array.
struct PlacementRecord {
  std::uint64_t key{0};
  std::uint32_t extent_begin{0};
  std::uint32_t extent_count{0};
  FbSet set{FbSet::kA};
};

/// End offsets of one cluster's slice of the flat load/store/release
/// arrays.
struct ClusterEnds {
  std::uint32_t loads{0};
  std::uint32_t stores{0};
  std::uint32_t releases{0};
};

/// Reusable scratch memory for plan_round.  A cold schedule() runs the
/// Figure-4 walk many times (RF probes, the cost scan, retention's prefix
/// probes); the scratch keeps the walk's live table in arena storage and
/// its output in vectors that are cleared per walk but keep their
/// capacity, so a steady-state walk allocates only the flat copy of a
/// successful result.
/// Not thread-safe: one per PlanCache / schedule() call (concurrent
/// compiles each own their own, which is what makes the cold batch path
/// scale instead of serializing on the global allocator).
struct PlanScratch {
  Arena arena;
  /// Extents of every FB placement of the walk; the live table and the
  /// placement records index into it.
  std::vector<Extent> extent_pool;
  std::vector<ObjInstance> loads;
  std::vector<StoreEvent> stores;
  std::vector<ReleaseEvent> releases;
  std::vector<PlacementRecord> placements;
  std::vector<ClusterEnds> cluster_ends;
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
  /// regularity policy).  Off only for the allocation ablation.
  bool regularity_hints{true};
  alloc::FitPolicy fit{alloc::FitPolicy::kFirstFit};
  /// Allow splitting an object across free blocks (§5 last resort).
  bool allow_split{true};
};

class DriverResult;

/// Runs the Figure-4 walk over one steady round (RF iterations of every
/// cluster) against `fb_set_size`-word allocators for both FB sets.
/// `scratch` is reset on entry and reused across calls.
[[nodiscard]] DriverResult plan_round(const extract::ScheduleAnalysis& analysis,
                                      SizeWords fb_set_size, const DriverOptions& options,
                                      PlanScratch& scratch);

/// Convenience overload with call-local scratch (tests, one-shot plans).
[[nodiscard]] DriverResult plan_round(const extract::ScheduleAnalysis& analysis,
                                      SizeWords fb_set_size, const DriverOptions& options);

/// The outcome of one walk, flat: per-cluster spans into shared arrays.
/// Empty unless `ok`.
class DriverResult {
 public:
  bool ok{false};
  std::string fail_reason;
  AllocSummary summary;

  [[nodiscard]] std::size_t cluster_count() const { return cluster_ends_.size(); }
  [[nodiscard]] std::span<const ObjInstance> loads(ClusterId c) const {
    return slice(loads_, &ClusterEnds::loads, c);
  }
  [[nodiscard]] std::span<const StoreEvent> stores(ClusterId c) const {
    return slice(stores_, &ClusterEnds::stores, c);
  }
  [[nodiscard]] std::span<const ReleaseEvent> releases(ClusterId c) const {
    return slice(releases_, &ClusterEnds::releases, c);
  }
  /// Every allocated instance, in allocation order.
  [[nodiscard]] std::span<const PlacementRecord> placements() const { return placements_; }
  [[nodiscard]] std::span<const Extent> extents(const PlacementRecord& p) const {
    return std::span<const Extent>(extents_).subspan(p.extent_begin, p.extent_count);
  }

 private:
  friend DriverResult plan_round(const extract::ScheduleAnalysis&, SizeWords,
                                 const DriverOptions&, PlanScratch&);

  template <class T>
  [[nodiscard]] std::span<const T> slice(const std::vector<T>& all,
                                         std::uint32_t ClusterEnds::*field,
                                         ClusterId c) const {
    const std::uint32_t begin = c.index() == 0 ? 0 : cluster_ends_[c.index() - 1].*field;
    return std::span<const T>(all).subspan(begin, cluster_ends_[c.index()].*field - begin);
  }

  std::vector<ClusterEnds> cluster_ends_;  // indexed by ClusterId
  std::vector<ObjInstance> loads_;
  std::vector<StoreEvent> stores_;
  std::vector<ReleaseEvent> releases_;
  std::vector<PlacementRecord> placements_;
  std::vector<Extent> extents_;
};

/// Builds the DataSchedule of a successful walk planned with `options`:
/// one round_plan entry per cluster and a pre-sized placements map.  The
/// only place a walk becomes a schedule.
[[nodiscard]] DataSchedule to_schedule(const DriverResult& result, std::string scheduler_name,
                                       const model::KernelSchedule& sched,
                                       const DriverOptions& options);

}  // namespace msys::dsched
