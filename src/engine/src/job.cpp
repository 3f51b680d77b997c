#include "msys/engine/job.hpp"

#include <chrono>
#include <exception>
#include <optional>
#include <thread>
#include <utility>

#include "msys/common/diagnostic.hpp"
#include "msys/common/error.hpp"
#include "msys/common/fault_injector.hpp"
#include "msys/common/hash.hpp"
#include "msys/csched/context_plan.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/model/canonical.hpp"
#include "msys/obs/metrics.hpp"
#include "msys/obs/trace.hpp"

namespace msys::engine {

CompileInput make_input(model::Application app,
                        std::vector<std::vector<KernelId>> partition,
                        arch::M1Config cfg) {
  CompileInput input;
  input.app = std::make_shared<const model::Application>(std::move(app));
  input.sched = std::make_shared<const model::KernelSchedule>(
      model::KernelSchedule::from_partition(*input.app, std::move(partition)));
  input.cfg = std::move(cfg);
  input.sched_digest = model::canonical_hash(*input.sched);
  return input;
}

CompileInput make_input(model::Application app,
                        const std::vector<std::vector<std::string>>& partition_names,
                        arch::M1Config cfg) {
  std::vector<std::vector<KernelId>> partition;
  partition.reserve(partition_names.size());
  for (const std::vector<std::string>& cluster : partition_names) {
    std::vector<KernelId> ids;
    ids.reserve(cluster.size());
    for (const std::string& name : cluster) {
      const auto id = app.find_kernel(name);
      MSYS_REQUIRE(id.has_value(), "unknown kernel in partition: " + name);
      ids.push_back(*id);
    }
    partition.push_back(std::move(ids));
  }
  return make_input(std::move(app), std::move(partition), std::move(cfg));
}

CompileInput make_input(const model::KernelSchedule& sched, arch::M1Config cfg) {
  std::vector<std::vector<KernelId>> partition;
  partition.reserve(sched.cluster_count());
  for (const model::Cluster& cluster : sched.clusters()) partition.push_back(cluster.kernels);
  return make_input(sched.app(), std::move(partition), std::move(cfg));
}

std::uint64_t cache_key(const Job& job) {
  MSYS_REQUIRE(job.input.sched_digest != 0,
               "cache_key needs a CompileInput built by make_input");
  Hasher h;
  hash_append(h, "msys.engine.Job/v6");
  hash_append(h, job.input.sched_digest);
  arch::hash_append(h, job.input.cfg);
  hash_append(h, job.options.pipeline);
  // Only the CDS reads its options: a DS or Basic job is one compilation
  // whatever they say.
  if (job.options.pipeline == dsched::Pipeline::kCDS) {
    hash_append(h, job.options.cds.ranking);
    hash_append(h, job.options.cds.joint_rf_retention);
  }
  return h.finalize();
}

namespace {

/// compile_job's body.  Leaves the analysis it scheduled on in `analysis`
/// and, when it priced a schedule, the context plan in `ctx_plan`, so that
/// compile_checked checks exactly what was compiled.
std::shared_ptr<const CompiledResult> compile(
    const Job& job, const CancelToken& cancel,
    std::optional<extract::ScheduleAnalysis>& analysis,
    std::optional<csched::ContextPlan>& ctx_plan) {
  MSYS_TRACE_SPAN(span, "engine.compile", "engine");
  if (span.active()) {
    span.add_arg(obs::arg("kind", dsched::to_string(job.options.pipeline)));
    span.add_arg(obs::arg("app", job.input.app->name()));
  }
  static obs::Counter& compiled = obs::counter("engine.jobs.compiled");
  static obs::Counter& infeasible = obs::counter("engine.jobs.infeasible");
  static obs::Counter& internal = obs::counter("engine.jobs.internal_error");
  static obs::Counter& stalled = obs::counter("engine.jobs.fault_stalled");
  compiled.add();

  // Fault site: a deterministic stall before scheduling, so deadline tests
  // can force a compile to outlive its budget without timing races.
  if (auto& faults = FaultInjector::global(); faults.armed()) {
    if (const std::uint64_t ms = faults.fire_param("engine.compile.stall"); ms != 0) {
      stalled.add();
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
  }

  auto result = std::make_shared<CompiledResult>();
  result->input = job.input;
  try {
    analysis.emplace(*job.input.sched, job.input.cfg.cross_set_reads);
    result->outcome =
        dsched::schedule_with_fallback(*analysis, job.input.cfg, job.options, cancel);
    if (result->outcome.feasible()) {
      ctx_plan.emplace(csched::ContextPlan::build(*job.input.sched,
                                                  job.input.cfg.cm_capacity_words));
      result->predicted =
          dsched::predict_cost(result->outcome.schedule, job.input.cfg, *ctx_plan);
      if (!result->predicted.feasible) {
        result->outcome.diagnostics.push_back(make_error(
            "schedule.infeasible", "context plan / cost model rejects the schedule: " +
                                       result->predicted.infeasible_reason));
      }
    } else {
      result->predicted.feasible = false;
      result->predicted.infeasible_reason = "no feasible schedule";
    }
  } catch (const std::exception& e) {
    // An invariant tripped outside the rung loop (extraction, context plan,
    // cost model): per-job failure data, never a batch abort (mirrors the
    // rung loop's "schedule.internal" convention).
    result->outcome.schedule.feasible = false;
    result->predicted.feasible = false;
    result->predicted.infeasible_reason = e.what();
    result->outcome.diagnostics.push_back(make_error(
        "schedule.internal", dsched::to_string(job.options.pipeline) + ": " + e.what()));
    internal.add();
  }
  if (!result->feasible()) infeasible.add();
  if (span.active()) {
    span.add_arg(obs::arg("feasible", std::string(result->feasible() ? "yes" : "no")));
    if (result->feasible()) {
      span.add_arg(obs::arg("rung", result->outcome.chosen_rung()));
      span.add_arg(obs::arg("cycles", result->predicted.total.value()));
    }
  }
  return result;
}

}  // namespace

std::shared_ptr<const CompiledResult> compile_job(const Job& job,
                                                  const CancelToken& cancel) {
  std::optional<extract::ScheduleAnalysis> analysis;
  std::optional<csched::ContextPlan> ctx_plan;
  return compile(job, cancel, analysis, ctx_plan);
}

CheckedResult compile_checked(const Job& job) {
  std::optional<extract::ScheduleAnalysis> analysis;
  std::optional<csched::ContextPlan> ctx_plan;
  CheckedResult out{compile(job, {}, analysis, ctx_plan), {}};
  const dsched::DataSchedule& schedule = out.result->outcome.schedule;
  if (ctx_plan && schedule.feasible) {
    out.check = sim::cross_check(schedule, out.result->predicted, *analysis, job.input.cfg,
                                 *ctx_plan);
  } else {
    // Nothing to check: what sim::cross_check reports for any infeasible
    // schedule.
    out.check.predicted.infeasible_reason = schedule.infeasible_reason;
  }
  return out;
}

std::shared_ptr<const CompiledResult> make_cancelled_result(const Job& job,
                                                            CancelCause cause) {
  auto result = std::make_shared<CompiledResult>();
  result->input = job.input;
  result->outcome.cancel_cause =
      cause == CancelCause::kNone ? CancelCause::kCancelled : cause;
  const std::string pipeline = dsched::to_string(job.options.pipeline);
  result->outcome.schedule = dsched::cancelled_schedule(
      pipeline, *job.input.sched, to_string(result->outcome.cancel_cause));
  result->outcome.diagnostics.push_back(make_error(
      result->outcome.cancel_cause == CancelCause::kDeadline ? "schedule.timeout"
                                                             : "schedule.cancelled",
      pipeline + " job " + to_string(result->outcome.cancel_cause) +
          " before a schedule was produced"));
  result->predicted.feasible = false;
  result->predicted.infeasible_reason = to_string(result->outcome.cancel_cause);
  return result;
}

}  // namespace msys::engine
