// Hand edits of a round plan, for tests that corrupt or extend a schedule.
// A RoundPlan keeps every cluster's loads, stores and releases in one shared
// array each, sliced by per-cluster end offsets; every edit here hands one
// cluster's slice to the caller as a vector, splices the result back and
// shifts the ends of that cluster and every later one, so the plan stays
// well formed whatever the edit does to the slice's length.
#pragma once

#include <cstdint>
#include <vector>

#include "msys/dsched/schedule_types.hpp"

namespace msys::testing {

namespace detail {

template <class T, class Edit>
void edit_slice(std::vector<T>& all, std::vector<dsched::RoundPlan::Ends>& ends,
                std::uint32_t dsched::RoundPlan::Ends::*field, ClusterId c, Edit&& edit) {
  const std::uint32_t begin = c.index() == 0 ? 0 : ends[c.index() - 1].*field;
  const std::uint32_t end = ends[c.index()].*field;
  std::vector<T> slice(all.begin() + begin, all.begin() + end);
  edit(slice);
  all.erase(all.begin() + begin, all.begin() + end);
  all.insert(all.begin() + begin, slice.begin(), slice.end());
  const auto new_end = static_cast<std::uint32_t>(begin + slice.size());
  for (std::size_t i = c.index(); i < ends.size(); ++i) ends[i].*field += new_end - end;
}

}  // namespace detail

/// Calls `edit(std::vector<ObjInstance>&)` on cluster c's loads.
template <class Edit>
void edit_loads(dsched::RoundPlan& plan, ClusterId c, Edit&& edit) {
  detail::edit_slice(plan.all_loads, plan.ends, &dsched::RoundPlan::Ends::loads, c, edit);
}

/// Calls `edit(std::vector<StoreEvent>&)` on cluster c's stores.
template <class Edit>
void edit_stores(dsched::RoundPlan& plan, ClusterId c, Edit&& edit) {
  detail::edit_slice(plan.all_stores, plan.ends, &dsched::RoundPlan::Ends::stores, c, edit);
}

/// Calls `edit(std::vector<ReleaseEvent>&)` on cluster c's releases.
template <class Edit>
void edit_releases(dsched::RoundPlan& plan, ClusterId c, Edit&& edit) {
  detail::edit_slice(plan.all_releases, plan.ends, &dsched::RoundPlan::Ends::releases, c,
                     edit);
}

}  // namespace msys::testing
