// Analytic execution-time model for a DataSchedule on an M1 machine.
//
// The run is a sequence of *slots* (round-major, cluster-minor); slot s
// executes RF iterations of one cluster while the single-channel DMA works
// on other slots' transfers.  The DMA order is the double-buffering weave:
//
//   IN(0), then per slot s: prefetch IN(s+1) when cluster s+1 lives on the
//   other FB set, else IN(s+1) must wait until after ST(s) (the set is
//   still occupied); stores ST(s) queue when slot s's execution finishes.
//
// where IN(s) = context loads + data loads of slot s and ST(s) = its
// result stores (an empty ST(s) is no DMA op and holds nothing back).
// Loads of slot s-1's own results are *late*: they queue behind ST(s-1).
// Execution of slot s starts when slot s-1 finished and IN(s) completed.
// A context load waits for the CM to free up (exec(s-1) when the CM holds
// one cluster, exec(s-2) when it holds two), and a data load waits for the
// execution of the previous slot on the same FB set.
// The event simulator (src/sim) implements the same discipline
// operationally; sim::cross_check asserts exact agreement between the two
// independent implementations.
//
// Pricing: all rounds replay one round plan and only the last may run
// fewer iterations, so each cluster's plan is priced once per call (exec,
// context and late/early/store figures for the full round and for the
// short last round).  Totals are those figures times round counts, and the
// weave is walked in DMA order with the timeline recurrence run in
// place, so a call costs O(plan entries + slots), not O(rounds x plan
// entries).
#pragma once

#include <cstdint>
#include <string>

#include "msys/arch/m1.hpp"
#include "msys/csched/context_plan.hpp"
#include "msys/dsched/schedule_types.hpp"

namespace msys::dsched {

struct CostBreakdown {
  bool feasible{false};
  std::string infeasible_reason;

  Cycles total{};
  /// Pure RC-array busy time (sum over slots of RF * kernel latencies).
  Cycles compute{};
  /// Cycles the RC array sat idle waiting for DMA (total - compute).
  Cycles stall{};
  /// Raw DMA channel busy time.
  Cycles dma_busy{};

  std::uint64_t data_words_loaded{0};
  std::uint64_t data_words_stored{0};
  std::uint64_t context_words{0};
  std::uint64_t dma_requests{0};

  [[nodiscard]] std::uint64_t data_words_total() const {
    return data_words_loaded + data_words_stored;
  }
  [[nodiscard]] std::string summary() const;
};

/// Predicts the full-run cost of `schedule` (all rounds, including a
/// partial last round) under `cfg` and `ctx_plan`.
[[nodiscard]] CostBreakdown predict_cost(const DataSchedule& schedule,
                                         const arch::M1Config& cfg,
                                         const csched::ContextPlan& ctx_plan);

/// Prices a round plan at `rf` over `sched` directly, without building a
/// DataSchedule: the RF scan and the annealer price many decision walks of
/// which at most one becomes a schedule.  The model proper; the
/// DataSchedule overload forwards its round_plan here.
[[nodiscard]] CostBreakdown predict_cost(const model::KernelSchedule& sched,
                                         std::uint32_t rf, const RoundPlan& plan,
                                         const arch::M1Config& cfg,
                                         const csched::ContextPlan& ctx_plan);

}  // namespace msys::dsched
