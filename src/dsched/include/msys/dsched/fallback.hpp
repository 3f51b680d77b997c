// What a job compiles, and the one rung loop that compiles it.
//
// A Pipeline selects one of four compilations: the paper's three data
// schedulers (CDS, DS, Basic), each alone, or Basic rescued by DS at RF 1
// when Basic does not fit — the serve layer's cheapest degraded compile.
// schedule_with_fallback() runs the pipeline's rungs in order, stopping at
// the first feasible one, and reports the walk as data:
//
//   kCDS             — CDS: retention + RF (the paper's Complete Data
//                      Scheduler)
//   kDS              — DS: RF only, no inter-cluster retention
//   kBasic           — Basic: RF = 1, no within-cluster replacement
//   kBasicThenRescue — Basic, then DS+split: DS's decision at RF 1 with
//                      nothing retained, placed like DS
//
// Only Basic has a rung after it, because only Basic can be rescued.
// Every walk may split an object across free blocks, so a walk fails only
// when a set's live words exceed it (alloc_driver.hpp), and no placement
// policy can rescue a decision.  CDS fails only when its RF-1 walk with
// nothing retained fails, which is DS's first walk and DS+split's only
// one, and Basic, which releases nothing early, holds at least as many
// live words: no rung rescues CDS or DS, while DS+split's
// release-at-last-use can fit where Basic does not
// (tests/dsched/fallback_ladder_test.cpp).
//
// Every rung records whether it was attempted, whether it succeeded and
// why it failed, so callers (report::runner, msysc) can print the chain.
// Internal scheduler exceptions are converted into diagnostics — an
// infeasible or adversarial input never escapes as a raw throw.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "msys/common/cancel.hpp"
#include "msys/common/diagnostic.hpp"
#include "msys/dsched/schedulers.hpp"

namespace msys::dsched {

/// One rung of a pipeline.
struct FallbackAttempt {
  std::string rung;
  bool attempted{false};
  bool succeeded{false};
  /// Failure reason, or "selected" for the winning rung, or "not reached".
  std::string reason;
};

/// Outcome of a pipeline run: the chosen schedule (possibly infeasible
/// when every rung failed) plus the full attempt record.  "Does not fit"
/// is data here, not control flow.
struct ScheduleOutcome {
  DataSchedule schedule;
  std::vector<FallbackAttempt> attempts;
  /// Non-empty exactly when no rung produced a feasible schedule; also
  /// carries converted internal errors (code "schedule.internal").
  Diagnostics diagnostics;
  /// Why the chain was cut short, when it was: kDeadline for a per-job
  /// deadline ("schedule.timeout" diagnostic), kCancelled for an explicit
  /// cancel ("schedule.cancelled").  kNone for a chain that ran to its end.
  CancelCause cancel_cause{CancelCause::kNone};

  [[nodiscard]] bool feasible() const { return schedule.feasible; }
  /// True when the chain stopped at a cancellation/deadline checkpoint.
  [[nodiscard]] bool cancelled() const { return cancel_cause != CancelCause::kNone; }
  /// Name of the winning rung; empty when infeasible.
  [[nodiscard]] std::string chosen_rung() const;
  /// One line, e.g. "Basic:failed(<why>) -> DS+split:ok".
  [[nodiscard]] std::string chain_summary() const;
};

/// What a job compiles (see the header comment).
enum class Pipeline : std::uint8_t {
  kCDS,
  kDS,
  kBasic,
  kBasicThenRescue,
};

[[nodiscard]] std::string to_string(Pipeline pipeline);

struct FallbackOptions {
  Pipeline pipeline{Pipeline::kCDS};
  /// Read by the CDS pipeline only.
  CompleteDataScheduler::Options cds{};
};

/// Runs the rungs of `options.pipeline`, stopping at the first feasible
/// one.  Never throws for infeasible or adversarial inputs; the returned
/// outcome always explains what was tried.  `cancel` is checked before
/// every rung and inside the schedulers' loop checkpoints; a firing stops
/// the chain and reports a "schedule.timeout"/"schedule.cancelled"
/// diagnostic with cancel_cause set — failure as data, never an exception.
[[nodiscard]] ScheduleOutcome schedule_with_fallback(
    const extract::ScheduleAnalysis& analysis, const arch::M1Config& cfg,
    const FallbackOptions& options = {}, const CancelToken& cancel = {});

}  // namespace msys::dsched
