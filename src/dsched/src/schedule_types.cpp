#include "msys/dsched/schedule_types.hpp"

#include <algorithm>
#include <sstream>

#include "msys/common/error.hpp"
#include "msys/common/strfmt.hpp"

namespace msys::dsched {

const PlacementRecord* DataSchedule::find_placement(std::uint64_t key) const {
  const auto it = std::lower_bound(
      placements.begin(), placements.end(), key,
      [](const PlacementRecord& p, std::uint64_t k) { return p.key < k; });
  return it != placements.end() && it->key == key ? &*it : nullptr;
}

Placement DataSchedule::placement(ClusterId cluster, ObjInstance inst) const {
  const PlacementRecord* p = find_placement(key(cluster, inst));
  MSYS_REQUIRE(p != nullptr, "no placement for object instance");
  return {p->set, extents_of(*p)};
}

std::span<const Extent> DataSchedule::extents_of(const PlacementRecord& record) const {
  MSYS_REQUIRE(record.extent_begin <= extents.size() &&
                   record.extent_count <= extents.size() - record.extent_begin,
               "placement extents outside the schedule");
  return std::span<const Extent>(extents).subspan(record.extent_begin, record.extent_count);
}

std::uint32_t DataSchedule::round_count() const {
  MSYS_REQUIRE(sched != nullptr, "schedule not bound to a kernel schedule");
  const std::uint32_t n = sched->app().total_iterations();
  return (n + rf - 1) / rf;
}

std::uint32_t DataSchedule::iterations_in_round(std::uint32_t round) const {
  const std::uint32_t n = sched->app().total_iterations();
  const std::uint32_t done = round * rf;
  MSYS_REQUIRE(done < n, "round index out of range");
  return std::min(rf, n - done);
}

SizeWords DataSchedule::round_load_words() const {
  SizeWords total = SizeWords::zero();
  for (ObjInstance inst : round_plan.all_loads) total += sched->app().data(inst.data).size;
  return total;
}

SizeWords DataSchedule::round_store_words() const {
  SizeWords total = SizeWords::zero();
  for (const StoreEvent& store : round_plan.all_stores) {
    total += sched->app().data(store.inst.data).size;
  }
  return total;
}

std::string DataSchedule::summary() const {
  std::ostringstream out;
  out << scheduler_name << " on " << sched->app().name();
  if (!feasible) {
    out << ": INFEASIBLE (" << infeasible_reason << ')';
    return out.str();
  }
  out << ": RF=" << rf << ", retained=" << retained.size()
      << ", round loads=" << size_kb(round_load_words())
      << ", round stores=" << size_kb(round_store_words())
      << ", splits=" << alloc_summary.splits;
  return out.str();
}

DataSchedule infeasible(std::string scheduler_name, const model::KernelSchedule& sched,
                        std::string reason) {
  DataSchedule out;
  out.scheduler_name = std::move(scheduler_name);
  out.sched = &sched;
  out.feasible = false;
  out.infeasible_reason = std::move(reason);
  return out;
}

DataSchedule cancelled_schedule(std::string scheduler_name,
                                const model::KernelSchedule& sched,
                                std::string reason) {
  DataSchedule out = infeasible(std::move(scheduler_name), sched, std::move(reason));
  out.cancelled = true;
  return out;
}

}  // namespace msys::dsched
