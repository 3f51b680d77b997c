// Canonical byte-level fingerprints of scheduler output, shared by the
// differential property tests (rf_search_property_test) and the
// retained-set byte-identity suite (retained_set_property_test).  Any
// change to these encodings invalidates the committed golden hashes in
// tests/dsched/golden/ — regenerate them deliberately, never casually.
#pragma once

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "msys/dsched/alloc_driver.hpp"
#include "msys/dsched/schedule_types.hpp"

namespace msys::testing {

namespace detail {

inline void append_cluster(std::ostringstream& out, ClusterId cluster,
                           std::span<const dsched::ObjInstance> loads,
                           std::span<const dsched::StoreEvent> stores,
                           std::span<const dsched::ReleaseEvent> releases) {
  out << "C" << cluster.index() << "{L:";
  for (const dsched::ObjInstance& inst : loads) {
    out << inst.data.index() << '.' << inst.iter << ' ';
  }
  out << "S:";
  for (const dsched::StoreEvent& s : stores) {
    out << s.inst.data.index() << '.' << s.inst.iter << (s.release_after ? "r" : "k") << ' ';
  }
  out << "R:";
  for (const dsched::ReleaseEvent& r : releases) {
    out << r.trigger_kernel << '@' << r.trigger_iter << ':' << r.inst.data.index() << '.'
        << r.inst.iter << '/' << r.placement_cluster.index() << ' ';
  }
  out << "}";
}

inline void append_placement(std::ostringstream& out, std::uint64_t key, FbSet set,
                             std::span<const Extent> extents) {
  out << 'P' << key << ':' << static_cast<int>(set) << '[';
  for (const Extent& e : extents) out << e.begin() << '+' << e.size.value() << ' ';
  out << ']';
}

}  // namespace detail

/// Canonical byte-level description of everything a schedule decided: the
/// round plan's load/store/release streams and the placement of every
/// object instance, in key order.
inline std::string plan_fingerprint(const dsched::DataSchedule& s) {
  std::ostringstream out;
  for (const dsched::ClusterRoundPlan& cp : s.round_plan) {
    detail::append_cluster(out, cp.cluster, cp.loads, cp.stores, cp.releases);
  }
  for (const dsched::PlacementRecord& p : s.placements) {
    detail::append_placement(out, p.key, p.set, s.extents_of(p));
  }
  return out.str();
}

/// The same encoding read straight from a walk's flat arrays (not through
/// to_schedule), so comparing it with a shipped schedule's fingerprint
/// also checks the packer.
inline std::string plan_fingerprint(const dsched::DriverResult& walk) {
  std::ostringstream out;
  for (std::uint32_t c = 0; c < walk.cluster_count(); ++c) {
    const ClusterId id{c};
    detail::append_cluster(out, id, walk.loads(id), walk.stores(id), walk.releases(id));
  }
  std::vector<dsched::PlacementRecord> records(walk.placements().begin(),
                                               walk.placements().end());
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  for (const dsched::PlacementRecord& p : records) {
    detail::append_placement(out, p.key, p.set, walk.extents(p));
  }
  return out.str();
}

/// Everything a walk decides — fit, the failure reason, and each
/// cluster's loads and stores — for a decision or a placement walk alike,
/// so the two walks compare directly.
inline std::string decision_fingerprint(const dsched::RoundDecision& walk) {
  std::ostringstream out;
  out << walk.ok << '|' << walk.fail_reason << '|';
  for (std::uint32_t c = 0; c < walk.cluster_count(); ++c) {
    const ClusterId id{c};
    detail::append_cluster(out, id, walk.loads(id), walk.stores(id), {});
  }
  return out.str();
}

/// Full-schedule fingerprint: feasibility, RF, the retained set (sorted,
/// so the encoding is independent of the set's iteration order), and the
/// plan fingerprint above.
inline std::string schedule_fingerprint(const dsched::DataSchedule& s) {
  std::ostringstream out;
  out << s.feasible << '|' << s.rf << '|';
  std::vector<std::uint32_t> retained;
  for (const DataId d : s.retained) retained.push_back(d.index());
  std::sort(retained.begin(), retained.end());
  for (const std::uint32_t d : retained) out << d << ',';
  out << '|' << plan_fingerprint(s);
  return out.str();
}

}  // namespace msys::testing
