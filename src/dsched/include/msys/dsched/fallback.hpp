// Graceful degradation for the data-scheduler stack.
//
// The paper's pitch is that the CDS always wins when it fits — but a
// production front end must also survive workloads where it does *not*
// fit.  schedule_with_fallback() walks a ladder of progressively less
// ambitious schedulers and reports the whole walk as data:
//
//   1. CDS          — retention + RF (the paper's Complete Data Scheduler)
//   2. DS           — RF only, no inter-cluster retention
//   3. Basic        — RF = 1, no within-cluster replacement
//   4. DS+split     — DS at RF = 1 with nothing retained, placed
//                     best-fit with no regularity hints
//
// Every walk may split an object across free blocks, so a walk fails only
// when a set's live words exceed it (alloc_driver.hpp), and no placement
// policy can rescue a decision.  CDS fails only when its RF-1 walk with
// nothing retained fails, which is DS's first walk and DS+split's only
// one, and Basic, which releases nothing early, holds at least as many
// live words: after a CDS or DS entry no later rung rescues an input
// (tests/dsched/fallback_ladder_test.cpp).  DS+split can still rescue a
// chain entered at Basic.  The rungs share one PlanCache, so a chain that
// fails everywhere walks twice: CDS's RF-1 walk and Basic's.
//
// Every rung records whether it was attempted, whether it succeeded and
// why it failed, so callers (report::runner, msysc) can print the chain.
// Internal scheduler exceptions are converted into diagnostics — an
// infeasible or adversarial input never escapes as a raw throw.
#pragma once

#include <string>
#include <vector>

#include "msys/common/cancel.hpp"
#include "msys/common/diagnostic.hpp"
#include "msys/dsched/schedulers.hpp"

namespace msys::dsched {

/// One rung of the degradation ladder.
struct FallbackAttempt {
  std::string rung;
  bool attempted{false};
  bool succeeded{false};
  /// Failure reason, or "selected" for the winning rung, or "not reached".
  std::string reason;
};

/// Outcome of a fallback run: the chosen schedule (possibly infeasible
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
  /// One line, e.g. "CDS:fit-failed -> DS:ok(selected)".
  [[nodiscard]] std::string chain_summary() const;
};

/// Where the degradation ladder starts.  kCDS is the full chain; kDS and
/// kBasic skip the more ambitious rungs entirely — the serve layer's
/// degraded mode, where a job whose deadline budget is nearly spent buys
/// a cheap schedule *now* instead of a better one too late.  Skipped
/// rungs are still recorded in the attempt list (reason "degraded entry")
/// so chain summaries stay honest about what was never tried.
enum class FallbackEntry : std::uint8_t {
  kCDS,
  kDS,
  kBasic,
};

[[nodiscard]] std::string to_string(FallbackEntry entry);

struct FallbackOptions {
  CompleteDataScheduler::Options cds{};
  /// First rung the chain is allowed to attempt (degraded-mode compiles
  /// enter lower).  Part of the engine cache key: a degraded compile is a
  /// different compilation than a full-chain one.
  FallbackEntry entry{FallbackEntry::kCDS};
};

/// Runs the CDS -> DS -> Basic -> DS+split ladder, stopping at the first
/// feasible rung.  Never throws for infeasible or adversarial inputs; the
/// returned outcome always explains what was tried.  `cancel` is checked
/// before every rung and inside the schedulers' loop checkpoints; a firing
/// stops the ladder and reports a "schedule.timeout"/"schedule.cancelled"
/// diagnostic with cancel_cause set — failure as data, never an exception.
[[nodiscard]] ScheduleOutcome schedule_with_fallback(
    const extract::ScheduleAnalysis& analysis, const arch::M1Config& cfg,
    const FallbackOptions& options = {}, const CancelToken& cancel = {});

}  // namespace msys::dsched
