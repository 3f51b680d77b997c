#include "msys/report/runner.hpp"

#include <utility>

#include "msys/common/diagnostic.hpp"
#include "msys/common/error.hpp"

namespace msys::report {

Cycles SchedulerOutcome::cycles() const {
  MSYS_REQUIRE(feasible(), "no cycle count for an infeasible schedule");
  return predicted().total;
}

std::optional<double> ExperimentResult::ds_improvement() const {
  if (!basic.feasible() || !ds.feasible()) return std::nullopt;
  const double tb = static_cast<double>(basic.cycles().value());
  const double td = static_cast<double>(ds.cycles().value());
  return (tb - td) / tb;
}

std::optional<double> ExperimentResult::cds_improvement() const {
  if (!basic.feasible() || !cds.feasible()) return std::nullopt;
  const double tb = static_cast<double>(basic.cycles().value());
  const double tc = static_cast<double>(cds.cycles().value());
  return (tb - tc) / tb;
}

SizeWords ExperimentResult::dt_words_avoided_per_iteration() const {
  if (!basic.feasible() || !cds.feasible()) return SizeWords::zero();
  const std::uint64_t iterations = total_iterations;
  const std::uint64_t b = basic.predicted().data_words_total();
  const std::uint64_t c = cds.predicted().data_words_total();
  return SizeWords{(b > c ? b - c : 0) / iterations};
}

namespace {

/// The path behind every runner entry point: compiles and checks `job`,
/// rethrows an internal scheduler error, and keeps a feasible schedule's
/// simulation in `measured`, throwing msys::Error on anything but a pass
/// or plain infeasibility.
SchedulerOutcome run_job(const engine::Job& job) {
  SchedulerOutcome out;
  out.scheduler = dsched::to_string(job.options.pipeline);
  auto [result, check] = engine::compile_checked(job);
  out.result = std::move(result);
  const std::string& app = job.input.app->name();
  for (const Diagnostic& d : out.outcome().diagnostics) {
    if (d.code == "schedule.internal") throw Error(app + ": " + d.message);
  }
  if (!out.outcome().feasible()) return out;
  MSYS_REQUIRE(check.ok() || check.stage == sim::CrossCheck::Stage::kInfeasible,
               out.scheduler + " on " + app + ": " + check.why());
  out.measured = std::move(check.measured);
  return out;
}

}  // namespace

SchedulerOutcome run_scheduler(const model::KernelSchedule& sched, const arch::M1Config& cfg,
                               const dsched::FallbackOptions& options) {
  return run_job({engine::make_input(sched, cfg), options});
}

ExperimentResult run_experiment(std::string name, const model::KernelSchedule& sched,
                                const arch::M1Config& cfg) {
  ExperimentResult result;
  result.name = std::move(name);
  result.cfg = cfg;
  result.n_clusters = static_cast<std::uint32_t>(sched.cluster_count());
  result.max_kernels_per_cluster = sched.max_kernels_per_cluster();
  result.total_iterations = sched.app().total_iterations();
  result.data_size_per_iteration = sched.app().total_data_size();

  const engine::CompileInput input = engine::make_input(sched, cfg);
  result.basic = run_job({input, {.pipeline = dsched::Pipeline::kBasic}});
  result.ds = run_job({input, {.pipeline = dsched::Pipeline::kDS}});
  result.cds = run_job({input, {.pipeline = dsched::Pipeline::kCDS}});
  return result;
}

}  // namespace msys::report
