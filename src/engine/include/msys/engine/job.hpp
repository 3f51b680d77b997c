// The engine's unit of work: one (application, machine, pipeline,
// options) compilation, the pure function that executes it, and the same
// compilation checked by the three-way oracle on request.
//
// Ownership: every model type downstream of a schedule holds non-owning
// pointers (DataSchedule -> KernelSchedule -> Application), which is fine
// for one-shot stack use but fatal for a cache whose entries outlive the
// call that created them.  CompileInput therefore carries the application
// and schedule by shared_ptr, and CompiledResult keeps a copy of that
// input: a cached result can be handed to any number of later callers —
// including callers holding a *different but content-identical* schedule —
// and its internal pointers stay valid for as long as anyone holds the
// result.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "msys/arch/m1.hpp"
#include "msys/common/cancel.hpp"
#include "msys/dsched/cost.hpp"
#include "msys/dsched/fallback.hpp"
#include "msys/model/application.hpp"
#include "msys/model/schedule.hpp"
#include "msys/sim/cross_check.hpp"

namespace msys::engine {

/// Shared-ownership bundle of everything a compilation reads.
/// `sched` references `*app`; both stay alive while anyone holds the input
/// (or a CompiledResult derived from it).  Build it with make_input: the
/// input is immutable once made, and many jobs may share one.
struct CompileInput {
  std::shared_ptr<const model::Application> app;
  std::shared_ptr<const model::KernelSchedule> sched;
  arch::M1Config cfg;
  /// model::canonical_hash(*sched), computed once by make_input so that
  /// cache_key never re-walks the schedule.  0 marks an input that did not
  /// come from make_input; cache_key rejects it.
  std::uint64_t sched_digest{0};
};

/// Builds a CompileInput from an application and a cluster partition
/// (kernel ids, or kernel names as the appdsl parser produces them), and
/// records the schedule's canonical digest.
/// Throws msys::Error on an invalid partition, exactly like
/// model::KernelSchedule::from_partition.
[[nodiscard]] CompileInput make_input(model::Application app,
                                      std::vector<std::vector<KernelId>> partition,
                                      arch::M1Config cfg);
[[nodiscard]] CompileInput make_input(
    model::Application app, const std::vector<std::vector<std::string>>& partition_names,
    arch::M1Config cfg);
/// Builds a CompileInput from a borrowed kernel schedule: copies its
/// application and rebuilds the same partition over the copy, so the input
/// owns everything it points into.
[[nodiscard]] CompileInput make_input(const model::KernelSchedule& sched, arch::M1Config cfg);

struct Job {
  CompileInput input;
  /// What the job compiles (dsched/fallback.hpp); CDS by default.
  dsched::FallbackOptions options{};
};

/// Immutable result of one job; cache entries and batch results share it.
struct CompiledResult {
  /// Keep-alive for every non-owning pointer inside `outcome`.
  CompileInput input;
  dsched::ScheduleOutcome outcome;
  /// Analytic cost of the winning schedule.  compile_job does not
  /// simulate; compile_checked below holds the model cycle- and word-exact
  /// to the simulator when a caller asks.  feasible == false
  /// when no rung fit or the context plan does not.
  dsched::CostBreakdown predicted;

  [[nodiscard]] bool feasible() const {
    return outcome.feasible() && predicted.feasible;
  }
};

/// Canonical 64-bit content key of a job (domain tag "msys.engine.Job/v6"):
/// the input's schedule digest (the canonical schedule hash of
/// msys/model/canonical.hpp, computed once in make_input) + machine config
/// + pipeline + the CDS options of a CDS job.  Two jobs with equal keys
/// are semantically identical compilations, no matter how their
/// applications were assembled.  Throws msys::Error on an input without a
/// digest.
[[nodiscard]] std::uint64_t cache_key(const Job& job);

/// Executes one job.  Pure (same job content => same result) and total:
/// infeasibility and internal scheduler errors come back as data in the
/// outcome's diagnostics ("schedule.infeasible" / "schedule.internal"),
/// never as an exception.  `cancel` is threaded into the schedulers'
/// cooperative checkpoints; a firing yields a result whose outcome carries
/// cancel_cause and a "schedule.timeout"/"schedule.cancelled" diagnostic.
[[nodiscard]] std::shared_ptr<const CompiledResult> compile_job(
    const Job& job, const CancelToken& cancel = {});

/// A compile result and the three-way oracle's verdict on it.
struct CheckedResult {
  std::shared_ptr<const CompiledResult> result;
  sim::CrossCheck check;
};

/// compile_job(job), then sim::cross_check of its schedule against the
/// ScheduleAnalysis and ContextPlan that compile built; neither is kept in
/// the result.  An infeasible schedule stops the check at
/// Stage::kInfeasible with the schedule's own reason.
[[nodiscard]] CheckedResult compile_checked(const Job& job);

/// Synthesizes the structured result for a job whose compute never ran (or
/// whose waiter stopped waiting) because `cause` fired: infeasible,
/// outcome.cancel_cause set, one "schedule.timeout"/"schedule.cancelled"
/// diagnostic.  Used by BatchRunner for deadline expiry — failure as data.
[[nodiscard]] std::shared_ptr<const CompiledResult> make_cancelled_result(
    const Job& job, CancelCause cause);

}  // namespace msys::engine
