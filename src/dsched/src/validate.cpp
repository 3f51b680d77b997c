#include "msys/dsched/validate.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

namespace msys::dsched {

using extract::ClusterDataflow;
using extract::RetentionCandidate;
using extract::ScheduleAnalysis;

namespace {

class Checker {
 public:
  Checker(const DataSchedule& schedule, const ScheduleAnalysis& analysis,
          const arch::M1Config& cfg)
      : schedule_(schedule), analysis_(analysis), cfg_(cfg) {}

  Diagnostics run() {
    check_shape();
    if (!violations_.empty()) return violations_;  // shape errors cascade
    check_retained_set();
    // Coverage marks by (data, iter): the 1-based id of the cluster whose
    // plan last loaded / stored that instance, so one table serves every
    // cluster without clearing.
    const std::size_t instances = analysis_.app().data_count() * schedule_.rf;
    loaded_.assign(instances, 0);
    stored_.assign(instances, 0);
    for (const model::Cluster& cluster : analysis_.sched().clusters()) {
      check_cluster(cluster);
    }
    return violations_;
  }

 private:
  void fail(std::string code, const std::string& what) {
    violations_.push_back(make_error(std::move(code), what));
  }

  [[nodiscard]] bool reads_in_place(DataId d, FbSet set) const {
    if (!schedule_.retained.contains(d) || !analysis_.is_candidate(d)) return false;
    const RetentionCandidate& cand = analysis_.candidate_for(d);
    return cand.set == set || analysis_.cross_set_reads();
  }

  void check_shape() {
    if (!schedule_.feasible) {
      fail("validate.infeasible", "schedule marked infeasible: " + schedule_.infeasible_reason);
      return;
    }
    if (schedule_.rf < 1 || schedule_.rf > analysis_.app().total_iterations()) {
      fail("validate.shape", "RF outside [1, total_iterations]");
    }
    check_plan_ends();
    // Lookups binary-search the records and read their extents in place,
    // so key order and extent ranges are part of the shape.
    const std::size_t n_extents = schedule_.extents.size();
    for (std::size_t i = 0; i < schedule_.placements.size(); ++i) {
      const PlacementRecord& p = schedule_.placements[i];
      if (i > 0 && schedule_.placements[i - 1].key >= p.key) {
        fail("validate.shape", "placements not sorted by key, or a key placed twice");
        return;
      }
      if (p.extent_begin > n_extents || p.extent_count > n_extents - p.extent_begin) {
        fail("validate.shape", "placement extents outside the schedule");
        return;
      }
    }
  }

  /// Every reader slices the plan's arrays by its cluster ends, so the ends
  /// are part of the shape: one per cluster, never decreasing, the last at
  /// each array's length.
  void check_plan_ends() {
    const RoundPlan& plan = schedule_.round_plan;
    if (plan.cluster_count() != analysis_.sched().cluster_count()) {
      fail("validate.shape", "round plan does not cover every cluster");
      return;
    }
    RoundPlan::Ends prev;
    for (const RoundPlan::Ends& end : plan.ends) {
      if (end.loads < prev.loads || end.stores < prev.stores || end.releases < prev.releases) {
        fail("validate.shape", "round plan cluster ends decrease");
        return;
      }
      prev = end;
    }
    if (prev.loads != plan.all_loads.size() || prev.stores != plan.all_stores.size() ||
        prev.releases != plan.all_releases.size()) {
      fail("validate.shape", "round plan cluster ends do not match its arrays");
    }
  }

  void check_retained_set() {
    for (DataId d : schedule_.retained) {
      if (!analysis_.is_candidate(d)) {
        fail("validate.retained", "retained object '" + analysis_.app().data(d).name +
                                    "' is not a retention candidate");
      }
    }
  }

  void check_placement(ClusterId cluster, ObjInstance inst, const char* role) {
    const PlacementRecord* record = schedule_.find_placement(DataSchedule::key(cluster, inst));
    if (record == nullptr) {
      std::ostringstream out;
      out << role << " of '" << analysis_.app().data(inst.data).name << "' iter "
          << inst.iter << " in Cl" << (cluster.index() + 1) << " has no placement";
      fail("validate.placement", out.str());
      return;
    }
    const std::span<const Extent> extents = schedule_.extents_of(*record);
    if (!disjoint(extents)) {
      fail("validate.placement", "placement extents overlap themselves");
    }
    if (total_size(extents) != analysis_.app().data(inst.data).size) {
      fail("validate.placement",
           "placement size mismatch for '" + analysis_.app().data(inst.data).name + "'");
    }
    for (const Extent& e : extents) {
      if (e.end() > cfg_.fb_set_size.value()) {
        fail("validate.placement", "placement of '" + analysis_.app().data(inst.data).name +
                                        "' exceeds the FB set");
      }
    }
  }

  /// Marks `inst` in `marks` for the cluster with 1-based id `mark`; an
  /// instance beyond the schedule's RF names nothing coverage asks about.
  void note(std::vector<std::uint32_t>& marks, ObjInstance inst, std::uint32_t mark) const {
    if (inst.data.index() < analysis_.app().data_count() && inst.iter < schedule_.rf) {
      marks[std::size_t{inst.data.index()} * schedule_.rf + inst.iter] = mark;
    }
  }
  [[nodiscard]] bool marked(const std::vector<std::uint32_t>& marks, ObjInstance inst,
                            std::uint32_t mark) const {
    return marks[std::size_t{inst.data.index()} * schedule_.rf + inst.iter] == mark;
  }

  void check_cluster(const model::Cluster& cluster) {
    const ClusterDataflow& flow = analysis_.dataflow(cluster.id);
    const RoundPlan& plan = schedule_.round_plan;
    const std::uint32_t mark = cluster.id.index() + 1;

    // Load coverage: every input instance loaded or read in place.
    for (ObjInstance inst : plan.loads(cluster.id)) {
      note(loaded_, inst, mark);
      check_placement(cluster.id, inst, "load");
      // Loads must be genuine cluster inputs.
      if (std::find(flow.inputs.begin(), flow.inputs.end(), inst.data) ==
          flow.inputs.end()) {
        fail("validate.load", "Cl" + std::to_string(cluster.id.index() + 1) + " loads '" +
                                  analysis_.app().data(inst.data).name +
                                  "' which is not an input");
      }
      if (reads_in_place(inst.data, cluster.set) && analysis_.is_candidate(inst.data) &&
          analysis_.candidate_for(inst.data).occupancy_span.front() != cluster.id) {
        fail("validate.retained", "retained object '" +
                                      analysis_.app().data(inst.data).name +
                                      "' re-loaded inside its span");
      }
    }
    for (DataId in : flow.inputs) {
      if (reads_in_place(in, cluster.set) &&
          analysis_.candidate_for(in).occupancy_span.front() != cluster.id) {
        continue;  // read in place, no load expected
      }
      for (std::uint32_t iter = 0; iter < schedule_.rf; ++iter) {
        if (!marked(loaded_, {in, iter}, mark)) {
          fail("validate.load", "Cl" + std::to_string(cluster.id.index() + 1) +
                                    " never loads input '" + analysis_.app().data(in).name +
                                    "' iter " + std::to_string(iter));
        }
      }
    }

    // Store coverage: finals always; results needed by later clusters
    // unless retention makes every such read in-place.
    for (const StoreEvent& store : plan.stores(cluster.id)) {
      note(stored_, store.inst, mark);
      check_placement(cluster.id, store.inst, "store");
    }
    for (DataId out : flow.outgoing_results) {
      const extract::ObjectInfo& info = analysis_.info(out);
      bool store_needed = info.required_external;
      for (ClusterId consumer : info.consumer_clusters) {
        if (consumer == cluster.id) continue;
        const FbSet consumer_set = analysis_.sched().cluster(consumer).set;
        if (!reads_in_place(out, consumer_set)) store_needed = true;
      }
      if (!store_needed) continue;
      for (std::uint32_t iter = 0; iter < schedule_.rf; ++iter) {
        if (!marked(stored_, {out, iter}, mark)) {
          fail("validate.store", "Cl" + std::to_string(cluster.id.index() + 1) +
                                     " never stores '" + analysis_.app().data(out).name +
                                     "' iter " + std::to_string(iter));
        }
      }
    }

    // Produced results must have placements.
    for (KernelId k : cluster.kernels) {
      for (DataId out : analysis_.app().kernel(k).outputs) {
        for (std::uint32_t iter = 0; iter < schedule_.rf; ++iter) {
          check_placement(cluster.id, {out, iter}, "result");
        }
      }
    }

    // Release events reference instances within RF bounds.
    for (const ReleaseEvent& release : plan.releases(cluster.id)) {
      if (release.inst.iter >= schedule_.rf) {
        fail("validate.release", "release of iter beyond RF in Cl" +
                                     std::to_string(cluster.id.index() + 1));
      }
    }
  }

  const DataSchedule& schedule_;
  const ScheduleAnalysis& analysis_;
  const arch::M1Config& cfg_;
  Diagnostics violations_;
  std::vector<std::uint32_t> loaded_;
  std::vector<std::uint32_t> stored_;
};

}  // namespace

Diagnostics validate_schedule(const DataSchedule& schedule,
                              const ScheduleAnalysis& analysis,
                              const arch::M1Config& cfg) {
  Checker checker(schedule, analysis, cfg);
  return checker.run();
}

}  // namespace msys::dsched
