// Experiment runner: pushes one (application, kernel schedule, machine)
// triple through all three data schedulers and derives the metrics Table 1
// / Figure 6 report.  Every run is one engine::compile_checked: the
// compile, then the one three-way oracle (validator clean, simulator
// fault-free, and predict_cost equal to the simulator on all eight shared
// fields) on the same analysis and context plan; any failure but plain
// infeasibility, and any internal scheduler error, throws msys::Error.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "msys/arch/m1.hpp"
#include "msys/engine/job.hpp"
#include "msys/model/schedule.hpp"
#include "msys/sim/simulator.hpp"

namespace msys::report {

/// One compile job's end-to-end outcome on one experiment.
struct SchedulerOutcome {
  /// dsched::to_string of the job's pipeline ("Basic", "DS" or "CDS").
  std::string scheduler;
  /// The engine's result; it owns the input the schedule points into.
  std::shared_ptr<const engine::CompiledResult> result;
  /// Present only when the schedule is feasible.
  std::optional<sim::SimReport> measured;

  [[nodiscard]] const dsched::ScheduleOutcome& outcome() const { return result->outcome; }
  [[nodiscard]] const dsched::DataSchedule& schedule() const {
    return result->outcome.schedule;
  }
  [[nodiscard]] const dsched::CostBreakdown& predicted() const { return result->predicted; }
  [[nodiscard]] bool feasible() const { return result->feasible(); }
  /// Simulated cycles (predicted == measured is asserted by cross_check).
  [[nodiscard]] Cycles cycles() const;
};

struct ExperimentResult {
  std::string name;
  arch::M1Config cfg;
  std::uint32_t n_clusters{0};
  std::uint32_t max_kernels_per_cluster{0};
  std::uint32_t total_iterations{0};
  /// Paper's "DS" column: total data size per iteration.
  SizeWords data_size_per_iteration{};

  SchedulerOutcome basic;
  SchedulerOutcome ds;
  SchedulerOutcome cds;

  /// Relative execution improvement over the Basic Scheduler, in [0, 1];
  /// nullopt when either side is infeasible.
  [[nodiscard]] std::optional<double> ds_improvement() const;
  [[nodiscard]] std::optional<double> cds_improvement() const;

  /// Paper's "DT": external-memory data words avoided per iteration by the
  /// CDS relative to the Basic Scheduler (loads + stores).
  [[nodiscard]] SizeWords dt_words_avoided_per_iteration() const;

  /// Paper's "RF": the context-reuse factor DS/CDS achieved.
  [[nodiscard]] std::uint32_t rf() const { return cds.schedule().rf; }
};

/// Runs Basic, DS and CDS on the experiment, as three compile jobs on one
/// engine::CompileInput.  Each outcome carries its one rung's attempt
/// and, when it does not fit, the structured diagnostics that name the
/// cluster.  Throws msys::Error on any cross_check failure.
[[nodiscard]] ExperimentResult run_experiment(std::string name,
                                              const model::KernelSchedule& sched,
                                              const arch::M1Config& cfg);

/// Runs one compile job end to end (ablations, the cross-set extension);
/// the CDS unless `options` selects another pipeline.  A machine that is
/// merely too small is data, not a throw.
[[nodiscard]] SchedulerOutcome run_scheduler(const model::KernelSchedule& sched,
                                             const arch::M1Config& cfg,
                                             const dsched::FallbackOptions& options = {});

}  // namespace msys::report
