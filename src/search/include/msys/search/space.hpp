// The space of schedules the kernel search and the annealer explore.
//
// A *shape* cuts a kernel order into contiguous clusters (the cluster
// sizes, a composition of the order's length n): 2^(n-1) shapes, one per
// subset of the gaps between kernels.  Every shape of a topological order
// is a valid schedule; from_partition binds cluster i to FB set i % 2.  A
// *skeleton* adds the data-schedule decisions: RF and the retained set.
//
// A ShapeContext holds what is derived from one shape and prices
// skeletons on it with one plan-memo lookup (a decision walk and its
// analytic cost, each computed once per memo entry).
// The kernel search prices each shape at CDS's own decisions (greedy());
// the annealer prices every move.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "msys/arch/m1.hpp"
#include "msys/csched/context_plan.hpp"
#include "msys/dsched/plan_cache.hpp"
#include "msys/dsched/schedule_types.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/model/schedule.hpp"

namespace msys::search {

using Shape = std::vector<std::uint32_t>;

/// Shapes of an n-kernel order (n >= 1): 2^(n-1), saturating at UINT64_MAX.
[[nodiscard]] std::uint64_t space_size(std::size_t n);

/// The shape `mask` encodes over the n-1 gaps of an n-kernel order: bit i
/// set cuts after kernel i.  Masks [0, space_size(n)) give every shape once.
[[nodiscard]] Shape shape_of_mask(std::uint64_t mask, std::size_t n);

/// The cluster sizes of `sched` along its flattened order.
[[nodiscard]] Shape shape_of(const model::KernelSchedule& sched);

/// The schedule that cuts `order`, a topological order of `app`, into `shape`.
[[nodiscard]] model::KernelSchedule schedule_of(const model::Application& app,
                                                std::span<const KernelId> order,
                                                const Shape& shape);

struct Skeleton {
  Shape shape;
  std::uint32_t rf{1};
  extract::RetainedSet retained;
};

/// Everything derived from one shape.  Not thread-safe: the plan memo and
/// its walk scratch belong to one thread.
struct ShapeContext {
  /// Borrows `analysis`: the caller's schedule and its extraction.
  ShapeContext(const extract::ScheduleAnalysis& analysis, const arch::M1Config& cfg);
  /// Owns the schedule that cuts `order` into `shape`, and its extraction.
  ShapeContext(const model::Application& app, std::span<const KernelId> order,
               const Shape& shape, const arch::M1Config& cfg);

  /// Predicted cycles of the walk at (rf, retained); nullopt if infeasible.
  [[nodiscard]] std::optional<Cycles> price(std::uint32_t rf,
                                            const extract::RetainedSet& retained);
  /// The data schedule of `sk`, which must have priced feasible here: the
  /// one placement walk of the shape.
  [[nodiscard]] dsched::DataSchedule pack(const Skeleton& sk, std::string scheduler_name);
  /// The shape's context plan (the plan memo's).
  [[nodiscard]] const csched::ContextPlan& context_plan() const;
  /// CDS's RF and retained set on this shape; nullopt when not usable.
  [[nodiscard]] std::optional<dsched::DriverOptions> greedy();

  const arch::M1Config* cfg;
  std::unique_ptr<model::KernelSchedule> sched_owned;       // null when borrowed
  std::unique_ptr<extract::ScheduleAnalysis> analysis_owned;  // null when borrowed
  const extract::ScheduleAnalysis* analysis;
  std::unique_ptr<dsched::PlanCache> plans;
  /// Retention-candidate ids, in the analysis's ranking order.
  std::vector<DataId> candidate_ids;
  std::uint32_t max_rf{0};
  /// False when the context plan is infeasible or no RF fits.
  bool usable{false};

 private:
  void derive();
};

}  // namespace msys::search
