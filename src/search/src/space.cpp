#include "msys/search/space.hpp"

#include <utility>

#include "msys/common/error.hpp"
#include "msys/dsched/schedulers.hpp"
#include "msys/obs/trace.hpp"

namespace msys::search {

namespace {

/// Plan memo entries per context (the annealer revisits option sets far
/// more often than one greedy pass — see dsched.plan_cache.evictions when
/// tuning).
constexpr std::size_t kPlanCacheCapacity = 16384;

dsched::DriverOptions walk_options(std::uint32_t rf, const extract::RetainedSet& retained) {
  dsched::DriverOptions options;
  options.release_at_last_use = true;
  options.rf = rf;
  options.retained = retained;
  return options;
}

}  // namespace

std::uint64_t space_size(std::size_t n) {
  MSYS_REQUIRE(n >= 1, "a kernel order has at least one kernel");
  return n > 64 ? UINT64_MAX : std::uint64_t{1} << (n - 1);
}

Shape shape_of_mask(std::uint64_t mask, std::size_t n) {
  Shape shape;
  std::uint32_t run = 1;
  for (std::size_t gap = 0; gap + 1 < n; ++gap) {
    if (mask & (std::uint64_t{1} << gap)) {
      shape.push_back(run);
      run = 1;
    } else {
      ++run;
    }
  }
  shape.push_back(run);
  return shape;
}

Shape shape_of(const model::KernelSchedule& sched) {
  Shape shape;
  shape.reserve(sched.cluster_count());
  for (const model::Cluster& c : sched.clusters()) {
    shape.push_back(static_cast<std::uint32_t>(c.kernels.size()));
  }
  return shape;
}

model::KernelSchedule schedule_of(const model::Application& app,
                                  std::span<const KernelId> order, const Shape& shape) {
  std::vector<std::vector<KernelId>> partition;
  partition.reserve(shape.size());
  std::size_t pos = 0;
  for (const std::uint32_t size : shape) {
    partition.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(pos),
                           order.begin() + static_cast<std::ptrdiff_t>(pos + size));
    pos += size;
  }
  MSYS_REQUIRE(pos == order.size(), "shape must cover every kernel");
  return model::KernelSchedule::from_partition(app, partition);
}

ShapeContext::ShapeContext(const extract::ScheduleAnalysis& analysis, const arch::M1Config& cfg)
    : cfg(&cfg), analysis(&analysis) {
  derive();
}

ShapeContext::ShapeContext(const model::Application& app, std::span<const KernelId> order,
                           const Shape& shape, const arch::M1Config& cfg)
    : cfg(&cfg),
      sched_owned(std::make_unique<model::KernelSchedule>(schedule_of(app, order, shape))),
      analysis_owned(
          std::make_unique<extract::ScheduleAnalysis>(*sched_owned, cfg.cross_set_reads)),
      analysis(analysis_owned.get()) {
  derive();
}

void ShapeContext::derive() {
  plans = std::make_unique<dsched::PlanCache>(*analysis, *cfg, kPlanCacheCapacity);
  for (const extract::RetentionCandidate& cand : analysis->retention_candidates()) {
    candidate_ids.push_back(cand.data);
  }
  if (context_plan().feasible()) max_rf = dsched::compute_max_rf(*plans, walk_options(1, {}));
  usable = context_plan().feasible() && max_rf > 0;
}

const csched::ContextPlan& ShapeContext::context_plan() const { return plans->context_plan(); }

std::optional<Cycles> ShapeContext::price(std::uint32_t rf,
                                          const extract::RetainedSet& retained) {
  MSYS_TRACE_SPAN(span, "search.recost", "search");
  return plans->price(walk_options(rf, retained));
}

dsched::DataSchedule ShapeContext::pack(const Skeleton& sk, std::string scheduler_name) {
  return plans->schedule(walk_options(sk.rf, sk.retained), std::move(scheduler_name));
}

std::optional<dsched::DriverOptions> ShapeContext::greedy() {
  if (!usable) return std::nullopt;
  return dsched::CompleteDataScheduler().decide(*plans);
}

}  // namespace msys::search
