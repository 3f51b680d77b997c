#include "msys/ksched/kernel_scheduler.hpp"

#include <algorithm>
#include <optional>

#include "msys/common/error.hpp"
#include "msys/csched/context_plan.hpp"
#include "msys/dsched/cost.hpp"
#include "msys/dsched/schedulers.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/obs/trace.hpp"

namespace msys::ksched {

using model::Application;
using model::KernelSchedule;

namespace {

/// Builds a schedule from a composition of the topological order; nullptr
/// when the partition violates dependencies (cannot happen for contiguous
/// splits of a topological order, but kept defensive).
std::unique_ptr<KernelSchedule> schedule_from_shape(const Application& app,
                                                    const std::vector<std::uint32_t>& shape) {
  std::vector<std::vector<KernelId>> partition;
  std::size_t pos = 0;
  const std::vector<KernelId>& order = app.topological_order();
  for (std::uint32_t size : shape) {
    partition.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(pos),
                           order.begin() + static_cast<std::ptrdiff_t>(pos + size));
    pos += size;
  }
  MSYS_REQUIRE(pos == order.size(), "shape must cover all kernels");
  return std::make_unique<KernelSchedule>(KernelSchedule::from_partition(app, partition));
}

/// Cycles `cds` predicts for `sched`; nullopt when infeasible.
std::optional<Cycles> estimate(const KernelSchedule& sched, const arch::M1Config& cfg,
                               const dsched::CompleteDataScheduler& cds) {
  MSYS_TRACE_SPAN(span, "ksched.estimate", "ksched");
  const extract::ScheduleAnalysis analysis(sched, cfg.cross_set_reads);
  const csched::ContextPlan ctx_plan =
      csched::ContextPlan::build(sched, cfg.cm_capacity_words);
  if (!ctx_plan.feasible()) return std::nullopt;
  const dsched::DataSchedule schedule = cds.schedule(analysis, cfg);
  if (!schedule.feasible) return std::nullopt;
  const dsched::CostBreakdown cost = dsched::predict_cost(schedule, cfg, ctx_plan);
  if (!cost.feasible) return std::nullopt;
  return cost.total;
}

}  // namespace

SearchResult find_best_schedule(const Application& app, const arch::M1Config& cfg,
                                const Options& options) {
  MSYS_TRACE_SPAN(span, "ksched.search", "ksched");
  const dsched::CompleteDataScheduler cds;
  const std::size_t n = app.kernel_count();
  MSYS_REQUIRE(n >= 1, "application has no kernels");

  SearchResult result;
  auto consider = [&](const std::vector<std::uint32_t>& shape) -> std::optional<Cycles> {
    std::unique_ptr<KernelSchedule> sched = schedule_from_shape(app, shape);
    std::optional<Cycles> cycles = estimate(*sched, cfg, cds);
    ++result.evaluated;
    Candidate cand{shape, cycles.value_or(Cycles::zero()), cycles.has_value()};
    result.candidates.push_back(cand);
    if (cycles.has_value()) {
      ++result.feasible_count;
      if (!result.best || *cycles < result.best_cycles) {
        result.best = std::move(sched);
        result.best_cycles = *cycles;
      }
    }
    return cycles;
  };

  const std::uint64_t total_candidates =
      n >= 64 ? UINT64_MAX : (std::uint64_t{1} << (n - 1));
  const bool exhaustive =
      options.strategy == Options::Strategy::kExhaustive ||
      (options.strategy == Options::Strategy::kAuto &&
       total_candidates <= options.exhaustive_budget);

  if (exhaustive) {
    // Each bitmask over the n-1 gaps of the topological order encodes a
    // contiguous partition: bit i set = cut after kernel i.
    for (std::uint64_t mask = 0; mask < total_candidates; ++mask) {
      std::vector<std::uint32_t> shape;
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
      consider(shape);
    }
  } else {
    // Greedy merging from one kernel per cluster.
    std::vector<std::uint32_t> shape(n, 1);
    std::optional<Cycles> current = consider(shape);
    bool improved = true;
    while (improved && shape.size() > 1) {
      improved = false;
      std::optional<Cycles> best_merge;
      std::size_t best_at = 0;
      for (std::size_t i = 0; i + 1 < shape.size(); ++i) {
        std::vector<std::uint32_t> merged = shape;
        merged[i] += merged[i + 1];
        merged.erase(merged.begin() + static_cast<std::ptrdiff_t>(i + 1));
        std::optional<Cycles> cycles = consider(merged);
        if (cycles && (!best_merge || *cycles < *best_merge)) {
          best_merge = cycles;
          best_at = i;
        }
      }
      if (best_merge && (!current || *best_merge < *current)) {
        shape[best_at] += shape[best_at + 1];
        shape.erase(shape.begin() + static_cast<std::ptrdiff_t>(best_at + 1));
        current = best_merge;
        improved = true;
      }
    }
  }

  std::sort(result.candidates.begin(), result.candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.feasible != b.feasible) return a.feasible;
              return a.cycles < b.cycles;
            });
  if (span.active()) {
    span.add_arg(obs::arg("evaluated", result.evaluated));
    span.add_arg(obs::arg("feasible", result.feasible_count));
    if (result.found()) span.add_arg(obs::arg("best_cycles", result.best_cycles.value()));
  }
  return result;
}

}  // namespace msys::ksched
