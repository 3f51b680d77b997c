// Parallel simulated-annealing schedule search above the greedy CDS.
//
// CDS (§4) is a one-pass greedy heuristic: retention and RF selection
// never revisit an early decision, so its cycle counts are a local
// optimum, not a floor.  The annealer mutates a Skeleton of the schedule
// space (space.hpp) — the shape of the incumbent's flattened kernel order
// (merge/split of adjacent clusters; that order is topological, so every
// shape is valid), RF and the retained set — and re-costs each mutation
// with ShapeContext::price: an (RF, retained) move on a known shape is one
// plan-memo lookup plus the analytic model.  Partition moves derive a
// ShapeContext once per new shape and cache it per island.
//
// Determinism contract: the search result is a pure function of
// (options, analysis, cfg) — byte-identical across 1/2/4 pool threads.
// K islands each run a fixed move budget on their own Rng::split(island)
// stream; temperature is a pure function of (step, budget) and every
// acceptance draw comes from the island's own stream, so a trajectory
// never observes another island or the thread schedule.  Islands keep
// their best by price alone; the merge cross-checks the island bests in
// (predicted cycles, island index) order and the first that passes wins.
//
// Never-worse guarantee: the winner must (a) strictly beat the greedy CDS
// baseline's predicted cycles and (b) pass sim::cross_check, the one
// three-way oracle — validate_schedule clean, the simulator fault-free,
// and the simulator equal to the prediction on all eight shared cycle,
// word and request fields — with a prediction equal to the island's
// price.  When no island best clears both bars (or the search is
// cancelled mid-flight), the greedy schedule is returned unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "msys/arch/m1.hpp"
#include "msys/common/cancel.hpp"
#include "msys/dsched/cost.hpp"
#include "msys/dsched/schedule_types.hpp"
#include "msys/dsched/schedulers.hpp"
#include "msys/engine/thread_pool.hpp"
#include "msys/extract/analysis.hpp"

namespace msys::search {

struct AnnealOptions {
  std::uint64_t seed{1};
  /// Independent annealing trajectories; each gets Rng::split(island).
  std::uint32_t islands{4};
  /// Moves per island — the budget.  Total work is islands * budget.
  std::uint32_t budget{256};
};

/// Per-island tallies, reported in island order (part of the deterministic
/// output: identical across pool thread counts).
struct IslandStats {
  std::uint32_t island{0};
  std::uint32_t moves{0};
  std::uint32_t accepted{0};
  std::uint32_t rejected_infeasible{0};
  /// The island best failed the simulator cross-check at the merge (must
  /// be zero unless the cost model and simulator disagree — a bug,
  /// surfaced as data so the search degrades instead of crashing).
  std::uint32_t sim_rejects{0};
  /// The merge cross-checked the island best (0 or 1: it stops at the
  /// first best that passes).
  std::uint32_t sim_verifications{0};
  /// Times the island best improved on its price.
  std::uint32_t improvements{0};
  /// Distinct partitions this island derived contexts for.
  std::uint32_t partitions_explored{0};
  /// Partition moves rejected because the island's partition cap was
  /// reached.
  std::uint32_t partition_cap_rejects{0};
  /// Island-local plan memo behaviour (PlanCache::Stats totals across the
  /// island's partition contexts).
  std::uint64_t plan_hits{0};
  std::uint64_t plan_misses{0};
  std::uint64_t plan_evictions{0};
  /// Best predicted cycles this island reached (>= the winner's).
  std::uint64_t best_cycles{0};
};

struct AnnealResult {
  /// The winning schedule: the greedy CDS schedule when no island best
  /// beat it and passed the cross-check, else that island best.
  /// `schedule.sched` points at the caller's kernel schedule, or at
  /// `owned_sched` when the winner repartitioned.
  dsched::DataSchedule schedule;
  /// Set iff the winner uses a different cluster partition than the input.
  std::unique_ptr<model::KernelSchedule> owned_sched;
  /// Predicted (== simulator-verified) cost of `schedule`.
  dsched::CostBreakdown predicted;

  /// The greedy CDS baseline the search started from (always on the
  /// caller's kernel schedule).
  dsched::DataSchedule greedy;
  dsched::CostBreakdown greedy_predicted;

  /// True when the winner strictly beats the greedy baseline.
  bool improved{false};
  /// True when the search was cut short by `cancel`; the greedy schedule
  /// is returned so the output stays deterministic.
  bool cancelled{false};
  /// Island that produced the winner (0 when !improved).
  std::uint32_t winner_island{0};
  std::vector<IslandStats> islands;

  [[nodiscard]] bool feasible() const { return schedule.feasible; }
  [[nodiscard]] std::uint64_t greedy_cycles() const {
    return greedy_predicted.total.value();
  }
  [[nodiscard]] std::uint64_t annealed_cycles() const { return predicted.total.value(); }
  [[nodiscard]] std::uint64_t cycles_saved() const {
    return improved ? greedy_cycles() - annealed_cycles() : 0;
  }
};

/// Runs the annealing search above greedy CDS.  The islands fan out
/// through engine::parallel_for on `pool`, or run in order on the calling
/// thread when it is null; the result is byte-identical for any pool size,
/// including none.  `cancel` is polled once per move; a firing returns
/// the greedy baseline with `cancelled = true`.
[[nodiscard]] AnnealResult anneal_schedule(const extract::ScheduleAnalysis& analysis,
                                           const arch::M1Config& cfg,
                                           const AnnealOptions& options = {},
                                           engine::ThreadPool* pool = nullptr,
                                           const CancelToken& cancel = {});

}  // namespace msys::search
