#include "msys/dsched/alloc_driver.hpp"

#include <algorithm>
#include <type_traits>

#include "msys/common/error.hpp"
#include "msys/common/strfmt.hpp"
#include "msys/obs/metrics.hpp"

namespace msys::dsched {

using alloc::AllocEnd;
using alloc::FrameBufferAllocator;
using extract::ClusterDataflow;
using extract::RetentionCandidate;
using extract::ScheduleAnalysis;
using model::Cluster;

namespace {

/// One (FB set, data, iter) instance in the walk's flat live table.
struct LiveSlot {
  bool live{false};
  /// Placement walk only: the ClusterId index at allocation time, and the
  /// instance's extents, extent_pool[extent_begin .. + extent_count).
  std::uint32_t placed_by{0};
  std::uint32_t extent_begin{0};
  std::uint32_t extent_count{0};
};

/// The placement walk's FB sets: one allocator each.
struct SetAllocators {
  FrameBufferAllocator sets[2];

  SetAllocators(SizeWords fbs, alloc::FitPolicy fit)
      : sets{FrameBufferAllocator(fbs, fit), FrameBufferAllocator(fbs, fit)} {}
};

/// The decision walk's FB sets: live words each.
struct SetWords {
  std::uint64_t capacity;
  std::uint64_t used[2] = {0, 0};

  SetWords(SizeWords fbs, alloc::FitPolicy /*placement only*/) : capacity(fbs.value()) {}
};

/// Mutable walk state shared across clusters of the round: the placement
/// walk when `Place`, else the decision walk (see the header).  All
/// bookkeeping and output live in the caller's PlanScratch — a flat
/// arena-backed live table indexed by (set, data, iter), a pooled extent
/// vector and the flat load/store/release/placement arrays — so once the
/// scratch has grown to the workload the walk never touches the heap.
template <bool Place>
struct Walk {
  const ScheduleAnalysis* analysis;
  const DriverOptions* options;
  PlanScratch* scratch;
  std::conditional_t<Place, SetAllocators, SetWords> fb;
  std::span<LiveSlot> live;
  std::uint32_t data_count{0};
  std::size_t live_count{0};

  Walk(const ScheduleAnalysis& a, SizeWords fbs, const DriverOptions& opt, PlanScratch& s)
      : analysis(&a), options(&opt), scratch(&s), fb(fbs, opt.fit) {
    scratch->arena.reset();
    scratch->extent_pool.clear();
    scratch->plan.ends.clear();
    scratch->plan.all_loads.clear();
    scratch->plan.all_stores.clear();
    scratch->plan.all_releases.clear();
    scratch->placements.clear();
    data_count = static_cast<std::uint32_t>(a.app().data_count());
    // An instance may be resident in both sets at once (e.g. a result
    // retained on its producer's set while the other set holds the copy it
    // loaded through external memory), so the table covers set × data ×
    // iter.
    live = scratch->arena.alloc_zeroed<LiveSlot>(std::size_t{2} * data_count * opt.rf);
  }

  [[nodiscard]] const model::Application& app() const { return analysis->app(); }

  [[nodiscard]] LiveSlot& slot(FbSet set, DataId d, std::uint32_t iter) {
    return live[(static_cast<std::size_t>(set) * data_count + d.index()) * options->rf +
                iter];
  }

  [[nodiscard]] std::span<const Extent> extents_of(const LiveSlot& s) const {
    return {scratch->extent_pool.data() + s.extent_begin, s.extent_count};
  }

  [[nodiscard]] bool retained_here(DataId d, FbSet set) const {
    return options->retained.contains(d) && analysis->is_candidate(d) &&
           analysis->candidate_for(d).set == set;
  }

  /// True when a consumer on a cluster bound to `set` reads `d` in place
  /// instead of loading a copy: the object is retained in this set, or
  /// (cross-set extension) retained in the other set and the RC array can
  /// reach across.
  [[nodiscard]] bool reads_in_place(DataId d, FbSet set) const {
    if (!options->retained.contains(d) || !analysis->is_candidate(d)) return false;
    return analysis->candidate_for(d).set == set || analysis->cross_set_reads();
  }

  /// Allocates one instance of `d` from `end` into `set`; false on
  /// out-of-space.  The placement walk gives consecutive instances the §5
  /// regularity hint: the address right below (top end) / above (bottom
  /// end) of the previous instance, so iterations land adjacently as in
  /// the paper's Figure 5.  The hint is copied to stack storage because
  /// allocate_into appends to the extent pool the previous instance's
  /// extents live in.  The decision walk only counts words, with the
  /// allocator's own zero-word check and out-of-space test.
  bool allocate_one(ClusterId cluster, DataId d, std::uint32_t iter, FbSet set, AllocEnd end,
                    const char* dup_msg) {
    const SizeWords size = app().data(d).size;
    const auto set_index = static_cast<std::size_t>(set);
    std::size_t begin = 0;
    std::size_t n = 0;
    if constexpr (Place) {
      Extent hint_storage;
      std::span<const Extent> hint;
      if (options->regularity_hints && iter > 0) {
        const LiveSlot& prev = slot(set, d, iter - 1);
        if (prev.extent_count == 1) {
          const Extent p = extents_of(prev).front();
          if (end == AllocEnd::kTop && p.begin() >= size.value()) {
            hint_storage = Extent{p.begin() - size.value(), size};
            hint = {&hint_storage, 1};
          } else if (end == AllocEnd::kBottom) {
            hint_storage = Extent{p.end(), size};
            hint = {&hint_storage, 1};
          }
        }
      }
      std::vector<Extent>& pool = scratch->extent_pool;
      begin = pool.size();
      n = fb.sets[set_index].allocate_into(size, end, hint, /*allow_split=*/true, pool);
      if (n == 0) return false;
    } else {
      MSYS_REQUIRE(size.value() > 0, "cannot allocate zero words");
      if (fb.used[set_index] + size.value() > fb.capacity) return false;
      fb.used[set_index] += size.value();
    }
    LiveSlot& s = slot(set, d, iter);
    MSYS_REQUIRE(!s.live, dup_msg);
    s.live = true;
    ++live_count;
    if constexpr (Place) {
      s.placed_by = cluster.index();
      s.extent_begin = static_cast<std::uint32_t>(begin);
      s.extent_count = static_cast<std::uint32_t>(n);
      scratch->placements.push_back(PlacementRecord{.key = DataSchedule::key(cluster, {d, iter}),
                                                    .extent_begin = s.extent_begin,
                                                    .extent_count = s.extent_count,
                                                    .set = set});
    }
    return true;
  }

  /// Allocates all `rf` instances of `d`; false on out-of-space.
  bool allocate_instances(ClusterId cluster, DataId d, FbSet set, AllocEnd end) {
    for (std::uint32_t iter = 0; iter < options->rf; ++iter) {
      if (!allocate_one(cluster, d, iter, set, end,
                        "instance allocated twice in the same FB set")) {
        return false;
      }
    }
    return true;
  }

  /// Frees the instance's FB words.  When `record` is set, the placement
  /// walk appends a ReleaseEvent replayable by code generation to the
  /// current cluster's releases.
  void release_instance(DataId d, std::uint32_t iter, FbSet set, bool record,
                        std::uint32_t trigger_kernel, std::uint32_t trigger_iter) {
    LiveSlot& s = slot(set, d, iter);
    MSYS_REQUIRE(s.live, "releasing an instance that is not live");
    const auto set_index = static_cast<std::size_t>(set);
    if constexpr (Place) {
      fb.sets[set_index].release_span(extents_of(s));
      if (record) {
        scratch->plan.all_releases.push_back(
            ReleaseEvent{.trigger_kernel = trigger_kernel,
                         .trigger_iter = trigger_iter,
                         .inst = {d, iter},
                         .placement_cluster = ClusterId{s.placed_by}});
      }
      s.extent_count = 0;
    } else {
      fb.used[set_index] -= app().data(d).size.value();
    }
    s.live = false;
    --live_count;
  }

  void release_all_instances(DataId d, FbSet set, bool record,
                             std::uint32_t trigger_kernel, std::uint32_t trigger_iter) {
    for (std::uint32_t iter = 0; iter < options->rf; ++iter) {
      release_instance(d, iter, set, record, trigger_kernel, trigger_iter);
    }
  }

  /// True when both FB sets are empty again.
  [[nodiscard]] bool drained() const {
    if constexpr (Place) {
      return fb.sets[0].all_free() && fb.sets[1].all_free();
    } else {
      return fb.used[0] == 0 && fb.used[1] == 0;
    }
  }

  [[nodiscard]] AllocSummary summary() const
    requires Place
  {
    AllocSummary out;
    for (std::size_t s = 0; s < 2; ++s) {
      const FrameBufferAllocator::Stats& st = fb.sets[s].stats();
      out.allocations += st.allocations;
      out.splits += st.splits;
      out.preferred_hits += st.preferred_hits;
      out.preferred_misses += st.preferred_misses;
      out.peak_used_words[s] = st.peak_used_words;
    }
    return out;
  }
};

template <bool Place>
bool process_cluster(Walk<Place>& walk, ClusterId cluster_id) {
  const ScheduleAnalysis& analysis = *walk.analysis;
  const model::Application& app = walk.app();
  const DriverOptions& opt = *walk.options;
  const Cluster& cluster = analysis.sched().cluster(cluster_id);
  const ClusterDataflow& flow = analysis.dataflow(cluster_id);
  const FbSet set = cluster.set;
  PlanScratch& scratch = *walk.scratch;
  RoundPlan& emit = scratch.plan;
  MSYS_REQUIRE(emit.ends.size() == cluster_id.index(),
               "clusters must be walked in ClusterId order");

  // ---- Phase 1: input loading (overlapped with the previous slot). ----
  // Partition the cluster's inputs into: retained objects already resident
  // (no load), retained shared data making its first appearance (load,
  // placed first, farthest-reaching first), and plain inputs (load,
  // grouped by their last consuming kernel, last kernel first).
  struct PendingLoad {
    DataId data;
    /// Sort key: shared data first by descending span end, then plain
    /// inputs by descending last consuming kernel.
    std::uint64_t priority;
  };
  std::span<PendingLoad> pending =
      scratch.arena.alloc_array<PendingLoad>(flow.inputs.size());
  std::size_t n_pending = 0;
  for (DataId in : flow.inputs) {
    if (walk.reads_in_place(in, set)) {
      const RetentionCandidate& cand = analysis.candidate_for(in);
      const bool first_here = !cand.is_result && cand.occupancy_span.front() == cluster_id;
      if (!first_here) {
        // Already resident in its home set — from an earlier cluster
        // (retained data) or its producer (retained result): no transfer,
        // no allocation.  With cross-set reads the home set may differ
        // from this cluster's set.
        for (std::uint32_t iter = 0; iter < opt.rf; ++iter) {
          MSYS_REQUIRE(walk.slot(cand.set, in, iter).live,
                       "retained object must already be FB-resident");
        }
        continue;
      }
      // Shared data loaded once, before everything else, deepest span
      // first (Figure 4's v = last cluster down to c+2 loop).
      const std::uint64_t span_end = cand.occupancy_span.back().index();
      pending[n_pending++] = {in, (1ULL << 32) | span_end};
      continue;
    }
    const std::int32_t last = flow.last_local_use[in.index()];
    MSYS_REQUIRE(last >= 0, "cluster input with no consumer in cluster");
    pending[n_pending++] = {in, static_cast<std::uint64_t>(last)};
  }
  pending = pending.first(n_pending);
  // Stable insertion sort, descending priority: the list is a handful of
  // entries and the sort runs against arena storage (std::stable_sort
  // would heap-allocate its merge buffer every cluster).
  for (std::size_t i = 1; i < pending.size(); ++i) {
    const PendingLoad x = pending[i];
    std::size_t j = i;
    for (; j > 0 && pending[j - 1].priority < x.priority; --j) pending[j] = pending[j - 1];
    pending[j] = x;
  }
  for (const PendingLoad& load : pending) {
    if (!walk.allocate_instances(cluster_id, load.data, set, AllocEnd::kTop)) {
      return false;
    }
    for (std::uint32_t iter = 0; iter < opt.rf; ++iter) {
      emit.all_loads.push_back({load.data, iter});
    }
  }

  // ---- Phase 2: execution with loop fission (kernel-major, RF minor). ----
  const auto n_kernels = static_cast<std::uint32_t>(cluster.kernels.size());
  for (std::uint32_t local = 0; local < n_kernels; ++local) {
    const model::Kernel& kernel = app.kernel(cluster.kernels[local]);
    for (std::uint32_t iter = 0; iter < opt.rf; ++iter) {
      // Allocate this execution's results.  Shared (retained) results go
      // to the top with the long-lived data; everything else accumulates
      // at the bottom.
      for (DataId out : kernel.outputs) {
        const bool retained = walk.retained_here(out, set);
        const AllocEnd end = retained ? AllocEnd::kTop : AllocEnd::kBottom;
        if (!walk.allocate_one(cluster_id, out, iter, set, end,
                               "result instance produced twice in the same FB set")) {
          return false;
        }
      }
      if (!opt.release_at_last_use) continue;
      // release(c, k, iter): inputs and intermediates whose last use is
      // this kernel die now (§3 replacement policy).  Retained objects and
      // inputs of later kernels survive.
      for (DataId d : flow.last_used_at(local)) {
        if (walk.reads_in_place(d, set)) continue;
        walk.release_instance(d, iter, set, true, local, iter);
      }
    }
  }

  // ---- Phase 3: cluster end — stores, then releases. ----
  for (DataId out : flow.outgoing_results) {
    const bool retained = walk.retained_here(out, set);
    // Retained results skip the store unless something beyond this FB
    // set (external memory, or a consumer on the other set) needs them.
    const bool store_needed = !retained || analysis.candidate_for(out).store_required;
    if (store_needed) {
      for (std::uint32_t iter = 0; iter < opt.rf; ++iter) {
        emit.all_stores.push_back(StoreEvent{.inst = {out, iter}, .release_after = !retained});
      }
    }
    if (!retained) {
      // Freed by the store itself (release_after above): update the
      // walk's allocator state without recording a ReleaseEvent.
      walk.release_all_instances(out, set, false, 0, 0);
    }
  }
  const std::uint32_t last_kernel = n_kernels - 1;
  const std::uint32_t last_iter = opt.rf - 1;
  if (!opt.release_at_last_use) {
    // Basic Scheduler: everything not already released dies only now.
    for (DataId in : flow.inputs) {
      if (!walk.reads_in_place(in, set)) {
        walk.release_all_instances(in, set, true, last_kernel, last_iter);
      }
    }
    for (DataId mid : flow.intermediates) {
      walk.release_all_instances(mid, set, true, last_kernel, last_iter);
    }
  }
  // Retained objects whose occupancy span ends at this cluster die now.
  // RetainedSet iterates ascending by DataId, which is the canonical
  // release order the golden schedules pin (the set's insertion history
  // must never leak into output bytes).
  for (DataId d : opt.retained) {
    if (!walk.retained_here(d, set)) continue;
    const RetentionCandidate& cand = analysis.candidate_for(d);
    if (cand.occupancy_span.back() == cluster_id) {
      walk.release_all_instances(d, set, true, last_kernel, last_iter);
    }
  }
  emit.ends.push_back(
      RoundPlan::Ends{.loads = static_cast<std::uint32_t>(emit.all_loads.size()),
                      .stores = static_cast<std::uint32_t>(emit.all_stores.size()),
                      .releases = static_cast<std::uint32_t>(emit.all_releases.size())});
  return true;
}

/// "cluster Cl<n> does not fit a <words>-word FB set at RF=<rf>" — part of
/// chain summaries and the batch results golden, so the bytes are fixed.
std::string fit_failure_reason(ClusterId cluster, SizeWords fb_set_size, std::uint32_t rf) {
  std::string reason = "cluster Cl";
  append_uint(reason, std::uint64_t{cluster.index()} + 1);
  reason += " does not fit a ";
  append_uint(reason, fb_set_size.value());
  reason += "-word FB set at RF=";
  append_uint(reason, rf);
  return reason;
}

/// Walks every cluster of the round; false, with `fail_reason` set, at
/// the first allocation that does not fit.
template <bool Place>
bool walk_round(Walk<Place>& walk, SizeWords fb_set_size, std::string& fail_reason) {
  MSYS_REQUIRE(walk.options->rf >= 1, "RF must be at least 1");
  for (const Cluster& cluster : walk.analysis->sched().clusters()) {
    if (!process_cluster(walk, cluster.id)) {
      fail_reason = fit_failure_reason(cluster.id, fb_set_size, walk.options->rf);
      return false;
    }
  }
  // A steady round must leave the FB empty: every retained span ends
  // within the round, so a non-empty FB means a liveness bug.
  MSYS_REQUIRE(walk.live_count == 0, "objects leaked past the end of the round");
  MSYS_REQUIRE(walk.drained(), "FB sets must drain by round end");
  return true;
}

void note_arena(const PlanScratch& scratch) {
  static obs::Gauge& arena_reserved = obs::gauge("dsched.plan.arena_reserved_bytes");
  arena_reserved.update_max(static_cast<std::int64_t>(scratch.arena.stats().bytes_reserved));
}

}  // namespace

RoundDecision decide_round(const ScheduleAnalysis& analysis, SizeWords fb_set_size,
                           const DriverOptions& options, PlanScratch& scratch) {
  static obs::Counter& rounds = obs::counter("dsched.plan.rounds");
  rounds.add();
  Walk<false> walk(analysis, fb_set_size, options, scratch);
  RoundDecision result;
  result.ok = walk_round(walk, fb_set_size, result.fail_reason);
  // One exactly-sized copy per array (the decision walk records no
  // releases); the scratch keeps its capacity.
  if (result.ok) result.plan = scratch.plan;
  note_arena(scratch);
  return result;
}

DriverResult plan_round(const ScheduleAnalysis& analysis, SizeWords fb_set_size,
                        const DriverOptions& options, PlanScratch& scratch) {
  static obs::Counter& placements = obs::counter("dsched.plan.placements");
  placements.add();
  Walk<true> walk(analysis, fb_set_size, options, scratch);
  DriverResult result;
  result.ok = walk_round(walk, fb_set_size, result.fail_reason);
  result.summary = walk.summary();
  if (result.ok) {
    result.plan = scratch.plan;
    result.placements = scratch.placements;
    result.extents = scratch.extent_pool;
  }
  note_arena(scratch);
  return result;
}

DriverResult plan_round(const ScheduleAnalysis& analysis, SizeWords fb_set_size,
                        const DriverOptions& options) {
  PlanScratch scratch;
  return plan_round(analysis, fb_set_size, options, scratch);
}

DataSchedule to_schedule(DriverResult&& result, std::string scheduler_name,
                         const model::KernelSchedule& sched, const DriverOptions& options) {
  MSYS_REQUIRE(result.ok, "only a successful walk becomes a schedule");
  DataSchedule out;
  out.scheduler_name = std::move(scheduler_name);
  out.sched = &sched;
  out.feasible = true;
  out.rf = options.rf;
  out.retained = options.retained;
  out.round_plan = std::move(result.plan);
  // A cluster allocates each instance once, so the keys are distinct.
  out.placements = std::move(result.placements);
  std::sort(out.placements.begin(), out.placements.end(),
            [](const PlacementRecord& a, const PlacementRecord& b) { return a.key < b.key; });
  out.extents = std::move(result.extents);
  out.alloc_summary = result.summary;
  return out;
}

}  // namespace msys::dsched
