#include "msys/extract/analysis.hpp"

#include <algorithm>
#include <sstream>

#include "msys/common/error.hpp"
#include "msys/common/strfmt.hpp"

namespace msys::extract {

using model::Application;
using model::Cluster;
using model::DataObject;
using model::Kernel;
using model::KernelSchedule;

ScheduleAnalysis::ScheduleAnalysis(const KernelSchedule& sched, bool cross_set_reads)
    : sched_(&sched), cross_set_reads_(cross_set_reads) {
  tds_ = app().total_data_size();
  compute_object_info();
  compute_dataflow();
  compute_candidates();
}

void ScheduleAnalysis::compute_object_info() {
  const Application& a = app();
  objects_.resize(a.data_count());
  // Each object owns a range of the shared array as long as its consumer
  // list.  One walk over the kernels in execution order appends a cluster
  // the first time it reads the object, so every list comes out in
  // execution order and deduplicated, with no sort.
  std::size_t consumers = 0;
  for (const DataObject& d : a.data_objects()) consumers += d.consumers.size();
  consumer_clusters_.resize(consumers);
  std::size_t begin = 0;
  for (const DataObject& d : a.data_objects()) {
    ObjectInfo& info = objects_[d.id.index()];
    info.id = d.id;
    info.size = d.size;
    info.required_external = d.required_in_external_memory;
    info.consumer_clusters = std::span<const ClusterId>(consumer_clusters_).subspan(begin, 0);
    begin += d.consumers.size();
  }
  std::uint32_t pos = 0;
  for (const Cluster& cluster : sched_->clusters()) {
    for (KernelId k : cluster.kernels) {
      const Kernel& kernel = a.kernel(k);
      for (DataId out : kernel.outputs) {
        objects_[out.index()].producer_cluster = cluster.id;
        objects_[out.index()].producer_pos = pos;
      }
      for (DataId in : kernel.inputs) {
        ObjectInfo& info = objects_[in.index()];
        if (!info.first_use_pos) info.first_use_pos = pos;
        info.last_use_pos = pos;
        std::span<const ClusterId>& clusters = info.consumer_clusters;
        if (clusters.empty() || clusters.back() != cluster.id) {
          const auto at = static_cast<std::size_t>(clusters.data() - consumer_clusters_.data());
          consumer_clusters_[at + clusters.size()] = cluster.id;
          clusters = {clusters.data(), clusters.size() + 1};
        }
      }
      ++pos;
    }
  }
}

void ScheduleAnalysis::compute_dataflow() {
  const Application& a = app();
  const std::size_t n_data = a.data_count();
  // A cluster lists each input, output and last-use entry at most once per
  // kernel that reads or writes it, so this bound keeps every span valid.
  std::size_t refs = 0;
  for (const Kernel& k : a.kernels()) refs += k.inputs.size() + k.outputs.size();
  flow_data_.reserve(2 * refs);
  dying_ends_.reserve(a.kernel_count());
  last_local_use_.assign(sched_->cluster_count() * n_data, -1);
  dataflow_.resize(sched_->cluster_count());
  auto tail_from = [&](std::size_t begin) {
    return std::span<const DataId>(flow_data_).subspan(begin);
  };

  for (const Cluster& cluster : sched_->clusters()) {
    ClusterDataflow& flow = dataflow_[cluster.id.index()];
    flow.cluster = cluster.id;
    const std::span<std::int32_t> last_use =
        std::span<std::int32_t>(last_local_use_).subspan(cluster.id.index() * n_data, n_data);
    flow.last_local_use = last_use;

    // Inputs: consumed here but produced elsewhere (external or earlier
    // cluster), each once, at its first read here.
    std::size_t begin = flow_data_.size();
    for (std::size_t pos = 0; pos < cluster.kernels.size(); ++pos) {
      for (DataId in : a.kernel(cluster.kernels[pos]).inputs) {
        const bool first_read = last_use[in.index()] < 0;
        last_use[in.index()] = static_cast<std::int32_t>(pos);
        const ObjectInfo& info = objects_[in.index()];
        const bool produced_here =
            info.producer_cluster.has_value() && *info.producer_cluster == cluster.id;
        if (!produced_here && first_read) flow_data_.push_back(in);
      }
    }
    flow.inputs = tail_from(begin);

    // Outputs: outgoing when needed beyond this cluster, intermediate when
    // produced and fully consumed inside it.  Consumers follow their
    // producer, so a result is read beyond this cluster exactly when its
    // last consuming cluster is another.
    auto outgoing = [&](DataId out) {
      const ObjectInfo& info = objects_[out.index()];
      return info.required_external ||
             (!info.consumer_clusters.empty() && info.consumer_clusters.back() != cluster.id);
    };
    for (const bool want_outgoing : {true, false}) {
      begin = flow_data_.size();
      for (KernelId k : cluster.kernels) {
        for (DataId out : a.kernel(k).outputs) {
          if (outgoing(out) == want_outgoing) flow_data_.push_back(out);
        }
      }
      (want_outgoing ? flow.outgoing_results : flow.intermediates) = tail_from(begin);
    }

    // Last-use lists, kernel by kernel: inputs first, then intermediates.
    begin = flow_data_.size();
    const std::size_t ends_begin = dying_ends_.size();
    for (std::size_t pos = 0; pos < cluster.kernels.size(); ++pos) {
      const auto local = static_cast<std::int32_t>(pos);
      for (DataId d : flow.inputs) {
        if (last_use[d.index()] == local) flow_data_.push_back(d);
      }
      for (DataId d : flow.intermediates) {
        if (last_use[d.index()] == local) flow_data_.push_back(d);
      }
      dying_ends_.push_back(static_cast<std::uint32_t>(flow_data_.size() - begin));
    }
    flow.dying = tail_from(begin);
    flow.dying_ends = std::span<const std::uint32_t>(dying_ends_).subspan(ends_begin);
  }
}

std::span<const ClusterId> ScheduleAnalysis::clusters_on(FbSet set) const {
  const std::span<const ClusterId> all(set_clusters_);
  return set == FbSet::kA ? all.first(set_b_begin_) : all.subspan(set_b_begin_);
}

std::span<const ClusterId> ScheduleAnalysis::clusters_on_set_between(FbSet set, ClusterId first,
                                                                     ClusterId last) const {
  const std::span<const ClusterId> on_set = clusters_on(set);
  const auto lo = std::lower_bound(on_set.begin(), on_set.end(), first);
  return {lo, std::upper_bound(lo, on_set.end(), last)};
}

void ScheduleAnalysis::compute_candidates() {
  candidate_index_.assign(app().data_count(), -1);
  candidates_.reserve(app().data_count());
  const double tds = static_cast<double>(tds_.value());
  set_clusters_.reserve(sched_->cluster_count());
  auto append_set = [&](FbSet set) {
    for (const Cluster& c : sched_->clusters()) {
      if (c.set == set) set_clusters_.push_back(c.id);
    }
  };
  append_set(FbSet::kA);
  set_b_begin_ = set_clusters_.size();
  append_set(FbSet::kB);

  // Every id here comes from the schedule itself.
  auto set_of = [&](ClusterId c) { return sched_->clusters()[c.index()].set; };

  // The retained object may be released only once no cluster can still be
  // reading it: when the last consumer sits on the *other* set, extend the
  // span to the next home-set cluster (whose end postdates that read).
  // Returns the span, or an empty one when no safe release point exists
  // within the round.
  auto safe_span = [&](FbSet home, ClusterId first, ClusterId last_consumer) {
    ClusterId release_at = last_consumer;
    if (set_of(last_consumer) != home) {
      const std::span<const ClusterId> on_home = clusters_on(home);
      const auto next = std::upper_bound(on_home.begin(), on_home.end(), last_consumer);
      if (next == on_home.end()) return std::span<const ClusterId>{};
      release_at = *next;
    }
    return clusters_on_set_between(home, first, release_at);
  };

  for (const DataObject& d : app().data_objects()) {
    const ObjectInfo& info = objects_[d.id.index()];
    RetentionCandidate cand;
    cand.data = d.id;

    if (!info.producer_cluster.has_value()) {
      if (cross_set_reads_) {
        // Extension: every consuming cluster counts; the object lives in
        // its first consumer's set and is read across from the other.
        if (info.consumer_clusters.size() < 2) continue;
        const ClusterId first = info.consumer_clusters.front();
        const ClusterId last = info.consumer_clusters.back();
        const FbSet home = set_of(first);
        const std::span<const ClusterId> span = safe_span(home, first, last);
        if (span.empty()) continue;  // no safe release point
        cand.is_result = false;
        cand.set = home;
        cand.n_users = static_cast<std::uint32_t>(info.consumer_clusters.size());
        cand.transfers_avoided = cand.n_users - 1;
        cand.occupancy_span = span;
        cand.tf = static_cast<double>(d.size.value()) * cand.transfers_avoided / tds;
        candidates_.push_back(cand);
        continue;
      }
      // Shared data D_{i..j}: an external input consumed by >= 2 clusters
      // bound to the same FB set.  If it is consumed on both sets we pick
      // the set with more consuming clusters (retention in the other set
      // is the paper's future-work case, gated by cross_set_reads).
      std::uint32_t users[2] = {0, 0};
      ClusterId first[2], last[2];
      for (ClusterId c : info.consumer_clusters) {
        const auto s = static_cast<std::size_t>(set_of(c));
        if (users[s]++ == 0) first[s] = c;
        last[s] = c;
      }
      const std::size_t s = users[1] > users[0] ? 1 : 0;
      if (users[s] < 2) continue;
      cand.is_result = false;
      cand.set = static_cast<FbSet>(s);
      cand.n_users = users[s];
      cand.transfers_avoided = cand.n_users - 1;
      cand.occupancy_span = clusters_on_set_between(cand.set, first[s], last[s]);
    } else if (cross_set_reads_) {
      // Extension: a result is retained in its producer's set and read in
      // place by consumers on both sets.
      const ClusterId producer = *info.producer_cluster;
      const FbSet home = set_of(producer);
      std::uint32_t users = 0;
      ClusterId last = producer;
      for (ClusterId c : info.consumer_clusters) {
        if (c == producer) continue;
        ++users;
        last = c;
      }
      if (users == 0) continue;
      const std::span<const ClusterId> span = safe_span(home, producer, last);
      if (span.empty()) continue;
      cand.is_result = true;
      cand.set = home;
      cand.n_users = users;
      cand.store_required = info.required_external;
      cand.transfers_avoided = users + (cand.store_required ? 0 : 1);
      cand.occupancy_span = span;
    } else {
      // Shared result R_{i,j..k}: produced in cluster i, consumed by later
      // clusters on the same FB set (a result can only be retained in the
      // set it was written to).
      const ClusterId producer = *info.producer_cluster;
      const FbSet set = set_of(producer);
      std::uint32_t users = 0;
      ClusterId last = producer;
      for (ClusterId c : info.consumer_clusters) {
        if (c == producer) continue;
        if (set_of(c) != set) continue;
        ++users;
        last = c;
      }
      if (users == 0) continue;
      cand.is_result = true;
      cand.set = set;
      cand.n_users = users;
      // The store is avoidable only when nothing outside this FB set needs
      // the result: not external memory, and no consumer on the other set.
      bool store_required = info.required_external;
      for (ClusterId c : info.consumer_clusters) {
        if (set_of(c) != set) store_required = true;
      }
      cand.store_required = store_required;
      cand.transfers_avoided = users + (store_required ? 0 : 1);
      cand.occupancy_span = clusters_on_set_between(set, producer, last);
    }

    cand.tf = static_cast<double>(d.size.value()) * cand.transfers_avoided / tds;
    candidates_.push_back(cand);
  }

  std::sort(candidates_.begin(), candidates_.end(),
            [&](const RetentionCandidate& a, const RetentionCandidate& b) {
              if (a.tf != b.tf) return a.tf > b.tf;
              const SizeWords sa = objects_[a.data.index()].size;
              const SizeWords sb = objects_[b.data.index()].size;
              if (sa != sb) return sa > sb;
              return a.data < b.data;
            });
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    candidate_index_[candidates_[i].data.index()] = static_cast<std::int32_t>(i);
  }
}

const ObjectInfo& ScheduleAnalysis::info(DataId id) const {
  MSYS_REQUIRE(id.index() < objects_.size(), "data id out of range");
  return objects_[id.index()];
}

const ClusterDataflow& ScheduleAnalysis::dataflow(ClusterId id) const {
  MSYS_REQUIRE(id.index() < dataflow_.size(), "cluster id out of range");
  return dataflow_[id.index()];
}

const RetentionCandidate& ScheduleAnalysis::candidate_for(DataId id) const {
  MSYS_REQUIRE(is_candidate(id), "object is not a retention candidate");
  return candidates_[static_cast<std::size_t>(candidate_index_[id.index()])];
}

bool ScheduleAnalysis::is_candidate(DataId id) const {
  return id.index() < candidate_index_.size() && candidate_index_[id.index()] >= 0;
}

SizeWords ScheduleAnalysis::cluster_footprint(ClusterId cluster_id,
                                              const RetainedSet& retained) const {
  const Cluster& cluster = sched_->cluster(cluster_id);
  const ClusterDataflow& flow = dataflow_[cluster_id.index()];
  const auto n = static_cast<std::uint32_t>(cluster.kernels.size());

  // Local position (1-based) of each kernel in the cluster.
  auto local_pos = [&](KernelId k) -> std::uint32_t {
    for (std::uint32_t i = 0; i < n; ++i) {
      if (cluster.kernels[i] == k) return i + 1;
    }
    MSYS_REQUIRE(false, "kernel not in cluster");
    return 0;
  };
  auto last_local_use = [&](DataId d) -> std::uint32_t {
    // Precomputed table; +1 converts to this function's 1-based positions
    // (0 = never read here).
    return static_cast<std::uint32_t>(flow.last_local_use[d.index()] + 1);
  };

  // Live intervals [start, end] in local positions, following §3's policy:
  // every input resident from before kernel 1 until its last in-cluster
  // consumer; outgoing results resident from their producer to cluster
  // end; intermediates from producer to last consumer.
  struct Interval {
    std::uint32_t start, end;
    SizeWords size;
  };
  std::vector<Interval> intervals;
  for (DataId in : flow.inputs) {
    if (retained.contains(in)) continue;
    intervals.push_back({1, last_local_use(in), app().data(in).size});
  }
  for (DataId out : flow.outgoing_results) {
    if (retained.contains(out)) continue;
    intervals.push_back({local_pos(app().data(out).producer), n, app().data(out).size});
  }
  for (DataId out : flow.intermediates) {
    intervals.push_back(
        {local_pos(app().data(out).producer), last_local_use(out), app().data(out).size});
  }

  SizeWords peak = SizeWords::zero();
  for (std::uint32_t i = 1; i <= n; ++i) {
    SizeWords live = SizeWords::zero();
    for (const Interval& iv : intervals) {
      if (iv.start <= i && i <= iv.end) live += iv.size;
    }
    peak = std::max(peak, live);
  }
  return peak;
}

SizeWords ScheduleAnalysis::cluster_footprint(ClusterId cluster_id) const {
  return cluster_footprint(cluster_id, RetainedSet{});
}

SizeWords ScheduleAnalysis::cluster_footprint_rf(ClusterId cluster_id, std::uint32_t rf,
                                                 const RetainedSet& retained) const {
  MSYS_REQUIRE(rf >= 1, "RF must be at least 1");
  SizeWords base = cluster_footprint(cluster_id, retained) * rf;
  // Retained objects occupy their full span — including this cluster if it
  // lies inside — for all RF iteration instances.
  for (DataId d : retained) {
    if (!is_candidate(d)) continue;
    const RetentionCandidate& cand = candidate_for(d);
    if (std::find(cand.occupancy_span.begin(), cand.occupancy_span.end(), cluster_id) !=
        cand.occupancy_span.end()) {
      base += objects_[d.index()].size * rf;
    }
  }
  return base;
}

std::string ScheduleAnalysis::summary() const {
  std::ostringstream out;
  out << "analysis of " << sched_->summary() << '\n';
  for (const Cluster& c : sched_->clusters()) {
    const ClusterDataflow& flow = dataflow_[c.id.index()];
    out << "  Cl" << (c.id.index() + 1) << ": inputs=" << flow.inputs.size()
        << " outgoing=" << flow.outgoing_results.size()
        << " intermediates=" << flow.intermediates.size()
        << " DS=" << size_kb(cluster_footprint(c.id)) << '\n';
  }
  out << "  retention candidates (desc TF):\n";
  for (const RetentionCandidate& cand : candidates_) {
    out << "    " << app().data(cand.data).name << (cand.is_result ? " [R]" : " [D]")
        << " set=" << to_string(cand.set) << " N=" << cand.n_users
        << " avoided=" << cand.transfers_avoided << " TF=" << fixed(cand.tf, 4) << '\n';
  }
  return out.str();
}

}  // namespace msys::extract
