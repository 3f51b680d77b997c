// Hand edits of a DataSchedule's placements, for tests that corrupt or
// extend a schedule.  A schedule keeps one PlacementRecord per instance,
// sorted by key, over one shared extent array; every edit here keeps the
// records sorted and gives an edited placement extents of its own (appended
// to the array), so no other record changes with it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "msys/common/error.hpp"
#include "msys/dsched/schedule_types.hpp"

namespace msys::testing {

namespace detail {

inline std::vector<dsched::PlacementRecord>::iterator lower_bound_key(dsched::DataSchedule& s,
                                                                      std::uint64_t key) {
  return std::lower_bound(
      s.placements.begin(), s.placements.end(), key,
      [](const dsched::PlacementRecord& p, std::uint64_t k) { return p.key < k; });
}

}  // namespace detail

/// The record `cluster` allocated for `inst`; throws when there is none.
inline dsched::PlacementRecord& placement_record(dsched::DataSchedule& s, ClusterId cluster,
                                                 dsched::ObjInstance inst) {
  const std::uint64_t key = dsched::DataSchedule::key(cluster, inst);
  const auto it = detail::lower_bound_key(s, key);
  MSYS_REQUIRE(it != s.placements.end() && it->key == key, "no placement for object instance");
  return *it;
}

/// Places (cluster, inst) at `extents` in `set`, replacing its placement
/// or adding one in key order.
inline void set_placement(dsched::DataSchedule& s, ClusterId cluster, dsched::ObjInstance inst,
                          FbSet set, std::span<const Extent> extents) {
  const std::uint64_t key = dsched::DataSchedule::key(cluster, inst);
  const dsched::PlacementRecord record{
      .key = key,
      .extent_begin = static_cast<std::uint32_t>(s.extents.size()),
      .extent_count = static_cast<std::uint32_t>(extents.size()),
      .set = set};
  s.extents.insert(s.extents.end(), extents.begin(), extents.end());
  const auto it = detail::lower_bound_key(s, key);
  if (it != s.placements.end() && it->key == key) {
    *it = record;
  } else {
    s.placements.insert(it, record);
  }
}

/// Moves the existing placement of (cluster, inst) to `extents`, keeping
/// its set.
inline void set_extents(dsched::DataSchedule& s, ClusterId cluster, dsched::ObjInstance inst,
                        std::vector<Extent> extents) {
  set_placement(s, cluster, inst, placement_record(s, cluster, inst).set, extents);
}

/// Removes the placement of (cluster, inst); false when there was none.
inline bool erase_placement(dsched::DataSchedule& s, ClusterId cluster,
                            dsched::ObjInstance inst) {
  const std::uint64_t key = dsched::DataSchedule::key(cluster, inst);
  const auto it = detail::lower_bound_key(s, key);
  if (it == s.placements.end() || it->key != key) return false;
  s.placements.erase(it);
  return true;
}

}  // namespace msys::testing
