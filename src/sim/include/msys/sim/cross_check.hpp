// The one three-way oracle: dsched::validate_schedule finds no violation,
// the simulator runs the generated program without a fault, and
// dsched::predict_cost equals the simulator on all eight shared fields
// (total, compute, stall, DMA-busy; loaded, stored, context words;
// requests).  The report runner, fuzz harness and annealer adapt it.
#pragma once

#include <optional>
#include <string>

#include "msys/dsched/cost.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/sim/simulator.hpp"

namespace msys::sim {

struct CrossCheck {
  /// How far the check got; every stage but kOk ends it.  kInfeasible: the
  /// schedule or its prediction does not run on this machine.
  enum class Stage { kOk, kInfeasible, kValidator, kSimulator, kMismatch };
  Stage stage{Stage::kInfeasible};
  /// The validator's violations or the simulator's "sim.fault".
  Diagnostics diagnostics;
  /// The caller's predict_cost of the schedule, whatever the stage.
  dsched::CostBreakdown predicted;
  /// Present from kMismatch on.
  std::optional<SimReport> measured;
  /// "field predicted P measured M" per differing field, "; "-joined.
  std::string mismatch;

  [[nodiscard]] bool ok() const { return stage == Stage::kOk; }
  /// Why the check stopped ("" when ok).
  [[nodiscard]] std::string why() const;
};

/// Validates, generates and simulates `schedule`, stopping at the first
/// broken stage, and compares the simulator with `predicted`, the caller's
/// dsched::predict_cost of the schedule on `cfg` and `ctx_plan` (a compile
/// has already priced what it checks).  A bad schedule is data, never a
/// throw.
[[nodiscard]] CrossCheck cross_check(const dsched::DataSchedule& schedule,
                                     dsched::CostBreakdown predicted,
                                     const extract::ScheduleAnalysis& analysis,
                                     const arch::M1Config& cfg,
                                     const csched::ContextPlan& ctx_plan);

}  // namespace msys::sim
