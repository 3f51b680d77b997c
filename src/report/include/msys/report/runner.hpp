// Experiment runner: pushes one (application, kernel schedule, machine)
// triple through all three data schedulers and derives the metrics Table 1
// / Figure 6 report.  Every feasible schedule goes through sim::cross_check,
// the one three-way oracle (validator clean, simulator fault-free, and
// predict_cost equal to the simulator on all eight shared fields); any
// failure but plain infeasibility throws msys::Error.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "msys/arch/m1.hpp"
#include "msys/dsched/cost.hpp"
#include "msys/dsched/fallback.hpp"
#include "msys/dsched/schedulers.hpp"
#include "msys/engine/thread_pool.hpp"
#include "msys/model/schedule.hpp"
#include "msys/sim/simulator.hpp"

namespace msys::report {

/// One scheduler's end-to-end outcome on one experiment.
struct SchedulerOutcome {
  std::string scheduler;
  dsched::DataSchedule schedule;
  dsched::CostBreakdown predicted;
  /// Present only when the schedule is feasible.
  std::optional<sim::SimReport> measured;

  [[nodiscard]] bool feasible() const { return schedule.feasible && predicted.feasible; }
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
  [[nodiscard]] std::uint32_t rf() const { return cds.schedule.rf; }
};

/// Runs Basic, DS and CDS on the experiment.  Throws msys::Error on any
/// cross_check failure.
[[nodiscard]] ExperimentResult run_experiment(std::string name,
                                              const model::KernelSchedule& sched,
                                              const arch::M1Config& cfg);

/// Runs one specific scheduler end to end (used by ablations).
[[nodiscard]] SchedulerOutcome run_scheduler(const dsched::DataSchedulerBase& scheduler,
                                             const model::KernelSchedule& sched,
                                             const arch::M1Config& cfg);

/// End-to-end run of the CDS -> DS -> Basic -> DS+split degradation chain:
/// schedules via dsched::schedule_with_fallback, then (when a rung fits)
/// cross-checks the winning schedule exactly as run_scheduler does.
/// Infeasibility is data: the returned outcome carries the per-rung
/// attempts and structured diagnostics; nothing throws for a machine that
/// is merely too small.
struct FallbackRunResult {
  dsched::ScheduleOutcome outcome;
  dsched::CostBreakdown predicted;
  /// Present only when a rung produced a feasible, simulatable schedule.
  std::optional<sim::SimReport> measured;

  [[nodiscard]] bool feasible() const {
    return outcome.feasible() && predicted.feasible;
  }
};

[[nodiscard]] FallbackRunResult run_with_fallback(const model::KernelSchedule& sched,
                                                  const arch::M1Config& cfg);

/// One experiment of a run_all batch.  `sched` is non-owning; the caller's
/// experiment objects must outlive the call (the Table-1/Fig-6 benches
/// keep their workloads::Experiment vector alive for exactly this reason).
struct ExperimentSpec {
  std::string name;
  const model::KernelSchedule* sched{nullptr};
  arch::M1Config cfg;
};

/// Runs every spec through run_experiment, in order.
[[nodiscard]] std::vector<ExperimentResult> run_all(
    const std::vector<ExperimentSpec>& specs);

/// Parallel overload: fans the specs across `pool`, returning results in
/// spec order regardless of completion order (results are deterministic —
/// identical to the serial overload).  A spec that fails run_experiment's
/// internal invariants rethrows after the batch drains, earliest spec
/// first, exactly as the serial loop would have thrown it.
[[nodiscard]] std::vector<ExperimentResult> run_all(
    const std::vector<ExperimentSpec>& specs, engine::ThreadPool& pool);

}  // namespace msys::report
