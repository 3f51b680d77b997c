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

/// Every cluster's loads, stores and (unless `with_releases` is false)
/// releases, cluster by cluster.
inline void append_plan(std::ostringstream& out, const dsched::RoundPlan& plan,
                        bool with_releases = true) {
  for (std::uint32_t c = 0; c < plan.cluster_count(); ++c) {
    const ClusterId id{c};
    out << "C" << c << "{L:";
    for (const dsched::ObjInstance& inst : plan.loads(id)) {
      out << inst.data.index() << '.' << inst.iter << ' ';
    }
    out << "S:";
    for (const dsched::StoreEvent& s : plan.stores(id)) {
      out << s.inst.data.index() << '.' << s.inst.iter << (s.release_after ? "r" : "k") << ' ';
    }
    out << "R:";
    for (const dsched::ReleaseEvent& r : with_releases ? plan.releases(id)
                                                       : std::span<const dsched::ReleaseEvent>{}) {
      out << r.trigger_kernel << '@' << r.trigger_iter << ':' << r.inst.data.index() << '.'
          << r.inst.iter << '/' << r.placement_cluster.index() << ' ';
    }
    out << "}";
  }
}

/// The records in key order, each with its set and extents.
inline void append_placements(std::ostringstream& out,
                              std::span<const dsched::PlacementRecord> records,
                              std::span<const Extent> extents) {
  for (const dsched::PlacementRecord& p : records) {
    out << 'P' << p.key << ':' << static_cast<int>(p.set) << '[';
    for (const Extent& e : extents.subspan(p.extent_begin, p.extent_count)) {
      out << e.begin() << '+' << e.size.value() << ' ';
    }
    out << ']';
  }
}

}  // namespace detail

/// Canonical byte-level description of everything a schedule decided: the
/// round plan's load/store/release streams and the placement of every
/// object instance, in key order.
inline std::string plan_fingerprint(const dsched::DataSchedule& s) {
  std::ostringstream out;
  detail::append_plan(out, s.round_plan);
  detail::append_placements(out, s.placements, s.extents);
  return out.str();
}

/// The same encoding of a fresh placement walk: its plan and its
/// placement records sorted by key (a walk keeps them in allocation
/// order), so comparing it with a shipped schedule's fingerprint checks
/// that the schedule is that walk.
inline std::string plan_fingerprint(const dsched::DriverResult& walk) {
  std::ostringstream out;
  detail::append_plan(out, walk.plan);
  std::vector<dsched::PlacementRecord> records = walk.placements;
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  detail::append_placements(out, records, walk.extents);
  return out.str();
}

/// Everything a walk decides — fit, the failure reason, and each
/// cluster's loads and stores — for a decision or a placement walk alike,
/// so the two walks compare directly (a placement walk's releases are left
/// out: a decision walk records none).
inline std::string decision_fingerprint(const dsched::RoundDecision& walk) {
  std::ostringstream out;
  out << walk.ok << '|' << walk.fail_reason << '|';
  detail::append_plan(out, walk.plan, /*with_releases=*/false);
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
