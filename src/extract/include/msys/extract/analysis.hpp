// Information Extractor (paper §2, Fig. 2): derives from an Application and
// a KernelSchedule everything the context and data schedulers consume —
// per-object producer/consumer placement, per-cluster dataflow
// classification, the §3 peak-footprint DS(C_c), and the §4 inter-cluster
// sharing candidates with their TF factors.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "msys/common/bitset.hpp"
#include "msys/common/types.hpp"
#include "msys/model/schedule.hpp"

namespace msys::extract {

/// Where a data object is produced and consumed, in schedule coordinates.
struct ObjectInfo {
  DataId id{};
  SizeWords size{};
  /// Producing cluster; nullopt for external inputs.
  std::optional<ClusterId> producer_cluster;
  /// Clusters containing at least one consumer, in execution order.
  std::span<const ClusterId> consumer_clusters;
  /// Global kernel position of the producer (nullopt for external inputs).
  std::optional<std::uint32_t> producer_pos;
  /// Global kernel positions of first/last consumer; nullopt if none.
  std::optional<std::uint32_t> first_use_pos;
  std::optional<std::uint32_t> last_use_pos;
  bool required_external{false};
};

/// Classification of the objects one cluster touches (paper §3 vocabulary).
struct ClusterDataflow {
  ClusterId cluster{};
  /// Objects that must be FB-resident before the cluster starts: external
  /// inputs plus results of earlier clusters (which, absent retention,
  /// arrive through external memory).
  std::span<const DataId> inputs;
  /// Outputs needed after the cluster: consumed by later clusters and/or
  /// required in external memory ("rout" objects), in kernel order.
  /// Absent retention they are stored to external memory when the cluster
  /// finishes.
  std::span<const DataId> outgoing_results;
  /// Outputs produced and last consumed inside this cluster, needed
  /// nowhere else ("r_jt" objects).  They never touch external memory.
  std::span<const DataId> intermediates;
  /// For every data object (indexed by DataId), the 0-based local position
  /// of its last consuming kernel inside this cluster, or -1 when nothing
  /// here reads it: this cluster's row of the analysis's clusters × data
  /// table, so the footprint model and the Figure-4 walk look it up
  /// instead of scanning consumer lists in their innermost loops.
  std::span<const std::int32_t> last_local_use;

  /// The inputs, then the intermediates, whose last use in this cluster is
  /// the kernel at local position `local`, each group in `inputs` /
  /// `intermediates` order: what §3's replacement policy frees after that
  /// kernel runs.
  [[nodiscard]] std::span<const DataId> last_used_at(std::uint32_t local) const {
    const std::uint32_t begin = local == 0 ? 0 : dying_ends[local - 1];
    return dying.subspan(begin, dying_ends[local] - begin);
  }

  /// last_used_at's lists, kernel after kernel; dying_ends[p] is the end
  /// offset of kernel p's list.
  std::span<const DataId> dying;
  std::span<const std::uint32_t> dying_ends;
};

/// One §4 retention opportunity: an object that, if kept FB-resident across
/// clusters of the same FB set, avoids external-memory transfers.
struct RetentionCandidate {
  DataId data{};
  /// True for a shared *result* (R_{i,j..k}), false for shared *data*
  /// (D_{i..j}).
  bool is_result{false};
  FbSet set{FbSet::kA};
  /// Number of clusters that consume the object (the paper's N).
  std::uint32_t n_users{0};
  /// True when the result must reach external memory even if retained:
  /// it is a final result, or a cluster on the *other* FB set consumes it
  /// (the other set is only reachable through external memory).
  bool store_required{false};
  /// External-memory transfers of size `size` avoided by retention:
  /// N-1 for shared data (one load instead of N); N+1 for a shared result
  /// (store skipped and N reloads skipped) — N only when store_required,
  /// where the store cannot be skipped.
  std::uint32_t transfers_avoided{0};
  /// Paper's time factor: size * transfers_avoided / TDS.  Candidates are
  /// retained greedily in descending TF order.
  double tf{0.0};
  /// Clusters (ids, execution order) on `set` during which the retained
  /// object occupies FB space: from load/production through last use.  A
  /// range of the analysis's per-set cluster lists.
  std::span<const ClusterId> occupancy_span;
};

/// Set of retained objects (chosen by the Complete Data Scheduler).
/// Bitset-backed: membership tests in the Figure-4 walk are one word op,
/// PlanCache keys hash the words without copying or sorting, and
/// iteration is ascending by DataId — so every consumer of the set's
/// order (ReleaseEvent streams, cache keys, codecs) is canonical and
/// platform-independent, where the previous std::unordered_set leaked
/// stdlib hash order into schedule bytes.
using RetainedSet = IdSet<DataId>;

/// Precomputed analysis over one (Application, KernelSchedule) pair.
/// Holds a non-owning reference to the schedule, which must outlive it.
///
/// Layout: flat tables indexed by id.  Every per-object and per-cluster
/// list (consumer clusters; inputs, outgoing results, intermediates and
/// last-use lists; occupancy spans) is a span into one of a few shared
/// arrays, sized once at construction, so building an analysis allocates a
/// constant number of blocks however many objects it describes.  The
/// spans point into this object's arrays: an analysis moves (the arrays
/// keep their storage) but does not copy.
class ScheduleAnalysis {
 public:
  /// `cross_set_reads` mirrors arch::M1Config::cross_set_reads: when true,
  /// §4 candidates also count consumers on the other FB set (the paper's
  /// future-work extension) — a retained object is then readable in place
  /// from either set, and only external memory / no-safe-release cases
  /// still force transfers.
  explicit ScheduleAnalysis(const model::KernelSchedule& sched,
                            bool cross_set_reads = false);
  ScheduleAnalysis(const ScheduleAnalysis&) = delete;
  ScheduleAnalysis& operator=(const ScheduleAnalysis&) = delete;
  ScheduleAnalysis(ScheduleAnalysis&&) noexcept = default;
  ScheduleAnalysis& operator=(ScheduleAnalysis&&) noexcept = default;

  [[nodiscard]] bool cross_set_reads() const { return cross_set_reads_; }

  [[nodiscard]] const model::KernelSchedule& sched() const { return *sched_; }
  [[nodiscard]] const model::Application& app() const { return sched_->app(); }

  [[nodiscard]] const ObjectInfo& info(DataId id) const;
  [[nodiscard]] const ClusterDataflow& dataflow(ClusterId id) const;

  /// Peak FB-set footprint of one iteration of `cluster` under the paper's
  /// §3 policy (inputs loaded before the cluster starts, dead objects
  /// replaced by results), in words.  Objects in `retained` are excluded —
  /// the caller charges them separately for their full occupancy span.
  [[nodiscard]] SizeWords cluster_footprint(ClusterId cluster,
                                            const RetainedSet& retained) const;
  [[nodiscard]] SizeWords cluster_footprint(ClusterId cluster) const;

  /// §3 DS(C_c) scaled for RF consecutive iterations, plus the full-time
  /// charge of every retained object whose occupancy span covers `cluster`.
  [[nodiscard]] SizeWords cluster_footprint_rf(ClusterId cluster, std::uint32_t rf,
                                               const RetainedSet& retained) const;

  /// All §4 retention opportunities, sorted by descending TF (ties broken
  /// by larger size, then smaller DataId, for determinism).
  [[nodiscard]] const std::vector<RetentionCandidate>& retention_candidates() const {
    return candidates_;
  }
  [[nodiscard]] const RetentionCandidate& candidate_for(DataId id) const;
  [[nodiscard]] bool is_candidate(DataId id) const;

  /// The paper's TDS: total data + result size over the application.
  [[nodiscard]] SizeWords total_data_size() const { return tds_; }

  /// Human-readable dump for debugging / examples.
  [[nodiscard]] std::string summary() const;

 private:
  void compute_object_info();
  void compute_dataflow();
  void compute_candidates();

  /// The clusters bound to `set`, in execution order: a range of
  /// set_clusters_.
  [[nodiscard]] std::span<const ClusterId> clusters_on(FbSet set) const;
  /// Those of them with ids in [first, last].
  [[nodiscard]] std::span<const ClusterId> clusters_on_set_between(FbSet set, ClusterId first,
                                                                   ClusterId last) const;

  const model::KernelSchedule* sched_;
  bool cross_set_reads_{false};
  std::vector<ObjectInfo> objects_;          // indexed by DataId
  std::vector<ClusterDataflow> dataflow_;    // indexed by ClusterId
  std::vector<RetentionCandidate> candidates_;
  std::vector<std::int32_t> candidate_index_;  // DataId -> index or -1
  SizeWords tds_{};
  // The shared arrays the spans above point into.
  /// Every object's consumer clusters: per object, a range as long as its
  /// consumer list, filled from the front.
  std::vector<ClusterId> consumer_clusters_;
  /// Per cluster: inputs, outgoing results, intermediates, then the
  /// last-use lists.
  std::vector<DataId> flow_data_;
  /// Per kernel, in flattened order: the end of its last-use list within
  /// its cluster's.
  std::vector<std::uint32_t> dying_ends_;
  /// Clusters × data: the last_local_use rows.
  std::vector<std::int32_t> last_local_use_;
  /// The clusters on set A in execution order, then those on set B, from
  /// set_b_begin_ on.
  std::vector<ClusterId> set_clusters_;
  std::size_t set_b_begin_{0};
};

}  // namespace msys::extract
