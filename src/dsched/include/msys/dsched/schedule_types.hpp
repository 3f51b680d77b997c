// The result type every data scheduler produces: a steady-state *round
// plan* (what to load, execute and store for RF consecutive iterations of
// each cluster) plus the Frame Buffer placement of every object instance.
//
// The application's total_iterations are processed in ceil(n/RF) rounds;
// all rounds are identical except that the last may run fewer iterations,
// so the plan is stored once and replayed by the code generator.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "msys/common/extent.hpp"
#include "msys/common/types.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/model/schedule.hpp"

namespace msys::dsched {

/// One per-iteration instance of a data object within a round
/// (iter in 0..RF-1).
struct ObjInstance {
  DataId data{};
  std::uint32_t iter{0};

  friend constexpr auto operator<=>(const ObjInstance&, const ObjInstance&) = default;
};

/// Where one allocated object instance lives: `key` is
/// DataSchedule::key(allocating cluster, instance) and the extents are
/// [extent_begin, extent_begin + extent_count) of the owning extent array.
struct PlacementRecord {
  std::uint64_t key{0};
  std::uint32_t extent_begin{0};
  std::uint32_t extent_count{0};
  FbSet set{FbSet::kA};
};

/// Where an object instance lives for the round: one record's set and
/// extents, viewed in place.
struct Placement {
  FbSet set{FbSet::kA};
  std::span<const Extent> extents;

  [[nodiscard]] bool split() const { return extents.size() > 1; }
};

/// A result store issued after the cluster's execution slot.
struct StoreEvent {
  ObjInstance inst{};
  /// Free the instance's FB words once stored; false for retained final
  /// results that later clusters still read in place.
  bool release_after{true};

  friend bool operator==(const StoreEvent&, const StoreEvent&) = default;
};

/// An FB-space release, triggered when `trigger_kernel` (local index in
/// the cluster) finishes its `trigger_iter`-th execution.  Cluster-end
/// releases use the last kernel / last iteration as trigger.
struct ReleaseEvent {
  std::uint32_t trigger_kernel{0};
  std::uint32_t trigger_iter{0};
  ObjInstance inst{};
  /// Cluster under which the instance's placement is keyed (differs from
  /// the releasing cluster for retained objects freed at span end).
  ClusterId placement_cluster{};

  friend bool operator==(const ReleaseEvent&, const ReleaseEvent&) = default;
};

/// The steady-round transfer plan, cluster after cluster.  Execution itself
/// is implied: each kernel of a cluster runs RF times (loop fission) in
/// cluster order.  The plan is flat, in the layout the Figure-4 walk emits
/// it: one array each for loads, stores and releases, with cluster c's
/// slice of each running from cluster c-1's end (0 for the first cluster)
/// to its own.
struct RoundPlan {
  /// End offsets of one cluster's slices of the three arrays.
  struct Ends {
    std::uint32_t loads{0};
    std::uint32_t stores{0};
    std::uint32_t releases{0};
  };

  /// Indexed by ClusterId.  The accessors below trust them: one per
  /// cluster, never decreasing, the last at each array's length
  /// (validate_schedule checks exactly that).
  std::vector<Ends> ends;
  /// DMA loads that must complete before a cluster's execution slot, in
  /// issue order (shared/retained data first, then kernel inputs).
  std::vector<ObjInstance> all_loads;
  /// DMA stores issued after a cluster's execution slot.
  std::vector<StoreEvent> all_stores;
  /// Releases of inputs/intermediates/retained objects, recorded by the
  /// placement walk so that code generation replays exactly the liveness
  /// the allocator planned for (stores carry their own release flag).
  std::vector<ReleaseEvent> all_releases;

  [[nodiscard]] std::size_t cluster_count() const { return ends.size(); }
  [[nodiscard]] std::span<const ObjInstance> loads(ClusterId c) const {
    const std::uint32_t begin = c.index() == 0 ? 0 : ends[c.index() - 1].loads;
    return {all_loads.data() + begin, ends[c.index()].loads - begin};
  }
  [[nodiscard]] std::span<const StoreEvent> stores(ClusterId c) const {
    const std::uint32_t begin = c.index() == 0 ? 0 : ends[c.index() - 1].stores;
    return {all_stores.data() + begin, ends[c.index()].stores - begin};
  }
  [[nodiscard]] std::span<const ReleaseEvent> releases(ClusterId c) const {
    const std::uint32_t begin = c.index() == 0 ? 0 : ends[c.index() - 1].releases;
    return {all_releases.data() + begin, ends[c.index()].releases - begin};
  }
};

/// Aggregate allocator behaviour over the planning walk.
struct AllocSummary {
  std::uint64_t allocations{0};
  std::uint64_t splits{0};
  std::uint64_t preferred_hits{0};
  std::uint64_t preferred_misses{0};
  /// Peak words in use per FB set.
  std::uint64_t peak_used_words[2] = {0, 0};
};

/// Complete output of one data scheduler run.
struct DataSchedule {
  std::string scheduler_name;
  const model::KernelSchedule* sched{nullptr};

  /// False when the workload cannot execute under this scheduler on the
  /// given machine (e.g. Basic Scheduler with MPEG in a 1K FB set).
  bool feasible{false};
  std::string infeasible_reason;
  /// True when the scheduler stopped at a cooperative cancellation
  /// checkpoint (deadline or explicit cancel) instead of finishing — the
  /// schedule is then infeasible *because the work was cut short*, not
  /// because the workload does not fit, and a pipeline must stop rather
  /// than try its next rung.
  bool cancelled{false};

  /// Context-reuse factor actually achieved.
  std::uint32_t rf{1};
  /// Objects kept FB-resident across clusters (empty except for CDS).
  extract::RetainedSet retained;

  /// What each cluster loads, stores and releases in a steady round: the
  /// placement walk's flat plan, moved in whole (see RoundPlan).
  RoundPlan round_plan;

  /// Placement of every object instance of the steady round, keyed by the
  /// *allocating* cluster: a non-retained object reloaded by two clusters
  /// legitimately has one placement per consuming cluster.  One record per
  /// instance, sorted by key with no key twice, so a lookup is a binary
  /// search and iteration is in key order.
  std::vector<PlacementRecord> placements;
  /// Every placement's extents; each record names its own range.
  std::vector<Extent> extents;

  AllocSummary alloc_summary;

  [[nodiscard]] static std::uint64_t key(ClusterId cluster, ObjInstance inst) {
    return (static_cast<std::uint64_t>(inst.data.index()) << 32) |
           (static_cast<std::uint64_t>(cluster.index()) << 16) | inst.iter;
  }
  /// Inverse of key(): the allocating cluster and instance a key names.
  [[nodiscard]] static std::pair<ClusterId, ObjInstance> unkey(std::uint64_t key) {
    return {ClusterId{static_cast<std::uint32_t>((key >> 16) & 0xffff)},
            ObjInstance{DataId{static_cast<std::uint32_t>(key >> 32)},
                        static_cast<std::uint32_t>(key & 0xffff)}};
  }
  /// The record of `key`, or nullptr when no placement has it.
  [[nodiscard]] const PlacementRecord* find_placement(std::uint64_t key) const;
  /// The placement `cluster` allocated for `inst`; throws when there is none.
  [[nodiscard]] Placement placement(ClusterId cluster, ObjInstance inst) const;
  [[nodiscard]] bool has_placement(ClusterId cluster, ObjInstance inst) const {
    return find_placement(key(cluster, inst)) != nullptr;
  }
  /// A record's extents; throws when its range lies outside `extents`.
  [[nodiscard]] std::span<const Extent> extents_of(const PlacementRecord& record) const;

  /// Number of full+partial rounds needed for `total_iterations`.
  [[nodiscard]] std::uint32_t round_count() const;
  /// Iterations executed in round r (RF except possibly the last round).
  [[nodiscard]] std::uint32_t iterations_in_round(std::uint32_t round) const;

  /// Data words DMA-loaded / stored during one full round.
  [[nodiscard]] SizeWords round_load_words() const;
  [[nodiscard]] SizeWords round_store_words() const;

  [[nodiscard]] std::string summary() const;
};

/// Slots run round-major (slot s executes cluster s % n_clusters).  A load
/// in slot s is *late* when it loads a result of the cluster of slot s-1:
/// that result reaches external memory only when slot s-1's stores finish,
/// so it cannot be prefetched and queues behind them.  The cost model and
/// the code generator both split a slot's loads with this one predicate.
[[nodiscard]] inline bool is_late_load(const model::KernelSchedule& sched, std::uint32_t s,
                                       DataId data) {
  const KernelId producer = sched.app().data(data).producer;
  const auto n_clusters = static_cast<std::uint32_t>(sched.cluster_count());
  return producer.valid() && s > 0 &&
         sched.cluster_of(producer) == ClusterId{(s - 1) % n_clusters};
}

/// Marks a schedule infeasible with a reason (helper for schedulers).
[[nodiscard]] DataSchedule infeasible(std::string scheduler_name,
                                      const model::KernelSchedule& sched,
                                      std::string reason);

/// Marks a schedule cut short by cancellation (helper for schedulers'
/// cooperative checkpoints); `reason` is CancelToken::reason().
[[nodiscard]] DataSchedule cancelled_schedule(std::string scheduler_name,
                                              const model::KernelSchedule& sched,
                                              std::string reason);

}  // namespace msys::dsched
