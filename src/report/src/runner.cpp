#include "msys/report/runner.hpp"

#include <condition_variable>
#include <exception>
#include <mutex>
#include <utility>

#include "msys/common/error.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/sim/cross_check.hpp"

namespace msys::report {

Cycles SchedulerOutcome::cycles() const {
  MSYS_REQUIRE(feasible(), "no cycle count for an infeasible schedule");
  return predicted.total;
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
  const std::uint64_t b = basic.predicted.data_words_total();
  const std::uint64_t c = cds.predicted.data_words_total();
  return SizeWords{(b > c ? b - c : 0) / iterations};
}

namespace {

/// The check behind every runner entry point: cross-checks `schedule` into
/// `out.predicted` / `out.measured` and throws msys::Error on anything but
/// a pass or plain infeasibility.
template <class Out>
void check_into(Out& out, const dsched::DataSchedule& schedule, const std::string& who,
                const extract::ScheduleAnalysis& analysis, const arch::M1Config& cfg) {
  sim::CrossCheck check = sim::cross_check(
      schedule, analysis, cfg,
      csched::ContextPlan::build(analysis.sched(), cfg.cm_capacity_words));
  MSYS_REQUIRE(check.ok() || check.stage == sim::CrossCheck::Stage::kInfeasible,
               who + " on " + analysis.sched().app().name() + ": " + check.why());
  out.predicted = std::move(check.predicted);
  out.measured = std::move(check.measured);
}

}  // namespace

SchedulerOutcome run_scheduler(const dsched::DataSchedulerBase& scheduler,
                               const model::KernelSchedule& sched,
                               const arch::M1Config& cfg) {
  const extract::ScheduleAnalysis analysis(sched, cfg.cross_set_reads);
  SchedulerOutcome outcome;
  outcome.scheduler = scheduler.name();
  outcome.schedule = scheduler.schedule(analysis, cfg);
  check_into(outcome, outcome.schedule, outcome.scheduler, analysis, cfg);
  return outcome;
}

FallbackRunResult run_with_fallback(const model::KernelSchedule& sched,
                                    const arch::M1Config& cfg) {
  const extract::ScheduleAnalysis analysis(sched, cfg.cross_set_reads);
  FallbackRunResult result;
  result.outcome = dsched::schedule_with_fallback(analysis, cfg);
  if (result.outcome.feasible()) {
    check_into(result, result.outcome.schedule, result.outcome.chosen_rung() + " (via fallback)",
               analysis, cfg);
  }
  return result;
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

  result.basic = run_scheduler(dsched::BasicScheduler{}, sched, cfg);
  result.ds = run_scheduler(dsched::DataScheduler{}, sched, cfg);
  result.cds = run_scheduler(dsched::CompleteDataScheduler{}, sched, cfg);
  return result;
}

std::vector<ExperimentResult> run_all(const std::vector<ExperimentSpec>& specs) {
  std::vector<ExperimentResult> results;
  results.reserve(specs.size());
  for (const ExperimentSpec& spec : specs) {
    MSYS_REQUIRE(spec.sched != nullptr, "ExperimentSpec without a schedule");
    results.push_back(run_experiment(spec.name, *spec.sched, spec.cfg));
  }
  return results;
}

std::vector<ExperimentResult> run_all(const std::vector<ExperimentSpec>& specs,
                                      engine::ThreadPool& pool) {
  std::vector<ExperimentResult> results(specs.size());
  std::vector<std::exception_ptr> errors(specs.size());

  std::mutex mu;
  std::condition_variable done_cv;
  std::size_t remaining = specs.size();

  std::size_t accepted = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const bool ok = pool.submit([&, i] {
      try {
        const ExperimentSpec& spec = specs[i];
        MSYS_REQUIRE(spec.sched != nullptr, "ExperimentSpec without a schedule");
        results[i] = run_experiment(spec.name, *spec.sched, spec.cfg);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) done_cv.notify_all();
    });
    if (!ok) break;
    ++accepted;
  }
  {
    // Drain the accepted jobs before any throw below: in-flight jobs
    // reference this frame.
    std::unique_lock<std::mutex> lock(mu);
    remaining -= specs.size() - accepted;
    done_cv.wait(lock, [&] { return remaining == 0; });
  }
  MSYS_REQUIRE(accepted == specs.size(),
               "run_all on a ThreadPool that is shutting down");
  // Rethrow in spec order so parallel failures read like serial ones.
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return results;
}

}  // namespace msys::report
