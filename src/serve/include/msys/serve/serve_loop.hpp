// ServeLoop: an open serving system on one partitioned M1.
//
// Two-phase design, chosen so that per-job outcomes are *input-order
// deterministic* no matter how many compile threads run:
//
//   Phase 1 (wall clock, parallel) — every trace event becomes one
//   engine::Job against its tenant's virtual machine and the whole set is
//   compiled through BatchRunner over the ThreadPool + single-flight
//   ScheduleCache (duplicate workloads coalesce; an optional
//   DiskScheduleStore gives warm restarts).  Inputs are prepared once per
//   (workload, tenant) pair and shared by that pair's arrivals, so a warm
//   restart costs work per distinct input, not per arrival.  Per-job
//   compile deadlines ride the existing CancelToken plumbing.
//
//   Phase 2 (virtual time, serial) — a discrete-event pass replays the
//   arrivals against each tenant's timeline: deadline-aware admission
//   (reject a job whose estimated finish already busts its deadline),
//   strict-priority preemption (a higher-priority arrival displaces the
//   running job; the victim's FB working set is spilled and later
//   refilled), and TransitionModel charges whenever the resident mode
//   changes.  Tenants own disjoint rows/FB/CM bands, so their timelines
//   are independent; cross-tenant DMA contention on the shared channel is
//   deliberately not modeled (each tenant sees its pro-rata channel —
//   documented simplification, same spirit as the paper's single-app
//   scope).
//
// Overload and degradation (both off by default) are virtual-time policy,
// not wall-clock heuristics: the shed watermark drops the lowest-priority
// never-started work when a tenant's backlog lower bound exceeds
// shed_threshold_cycles, and the degraded-compile watermark compiles
// deadline-starved jobs with a cheaper pipeline (DS, or Basic rescued by
// DS at RF 1).
// Every arrival ends as exactly one of completed / rejected /
// shed-overload / infeasible / compile-timeout — ServeLoop::run asserts
// this conservation invariant per tenant and in total.
//
// Outcomes are emitted in trace order with a canonical TSV line per job,
// so replaying one trace twice — or with different thread counts — yields
// byte-identical records (serve_loop_test pins this).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "msys/engine/batch_runner.hpp"
#include "msys/serve/partition.hpp"
#include "msys/serve/trace_file.hpp"
#include "msys/serve/transition.hpp"
#include "msys/store/disk_store.hpp"

namespace msys::serve {

struct ServeOptions {
  /// Compile-phase worker threads.
  unsigned threads{1};
  /// Wall-clock budget per compile attempt (CancelToken deadline);
  /// zero => none.
  std::chrono::milliseconds compile_deadline{0};
  /// Optional persistent compile tier shared with batch mode.
  std::shared_ptr<store::DiskScheduleStore> store;
  /// Batch-wide cancellation for the compile phase.
  CancelToken cancel;
  /// Overload watermark (virtual cycles of per-tenant backlog; 0 = off).
  /// When an arrival pushes a tenant's backlog lower bound — running
  /// remainder + queued work + the newcomer's reload and service — past
  /// this threshold, the lowest-priority never-started work is shed with
  /// outcome "shed-overload" until the backlog fits (or the newcomer
  /// itself is the cheapest to drop).  Shedding is admission-time policy:
  /// it never touches the running job and never counts as a missed
  /// deadline.
  std::uint64_t shed_threshold_cycles{0};
  /// Degraded-compile watermark (virtual cycles of relative deadline;
  /// 0 = off).  An arrival whose deadline budget is below this compiles
  /// a cheaper pipeline (DS; below half the threshold, Basic rescued by DS
  /// at RF 1) instead of the CDS — a worse schedule now beats a perfect
  /// one after the deadline.  Deterministic in virtual time: the
  /// decision reads only the trace event, so outcomes stay byte-identical
  /// across compile thread counts.
  std::uint64_t degraded_threshold_cycles{0};
};

/// One job's serving outcome.  Cycles fields are virtual (tenant
/// timeline); status is one of "done", "late" (completed past deadline),
/// "rejected" (admission), "shed-overload" (dropped by the overload
/// watermark), "compile-timeout", "infeasible".
struct JobOutcome {
  std::uint64_t index{0};  // position in the trace
  std::string tenant;
  std::string workload;
  std::string status;
  std::string rung;  // winning fallback rung, "-" when none
  int priority{0};
  std::uint64_t arrive_cycles{0};
  std::uint64_t start_cycles{0};
  std::uint64_t finish_cycles{0};
  std::uint64_t service_cycles{0};
  std::uint64_t transition_cycles{0};
  std::uint32_t preemptions{0};
  bool deadline_met{true};
  /// Compiled with a degraded pipeline (DS or Basic-then-rescue) because
  /// the deadline budget sat below ServeOptions::degraded_threshold_cycles.
  bool degraded{false};

  [[nodiscard]] bool completed() const { return status == "done" || status == "late"; }
};

/// One TSV line (14 fields; the last is the degraded-compile flag),
/// stable across runs and thread counts (the serving layer's
/// replay-determinism contract).
[[nodiscard]] std::string canonical_outcome_line(const JobOutcome& o);

struct TenantStats {
  std::string name;
  std::size_t jobs{0};
  std::size_t completed{0};
  std::size_t rejected{0};
  /// Jobs dropped by the overload watermark ("shed-overload"), mirrored
  /// to "serve.tenant.<name>.shed".  Disjoint from rejected and never in
  /// deadline_missed: shedding is a capacity decision, not an SLO miss.
  std::size_t shed{0};
  /// Late completions + compile timeouts (every way a job missed its
  /// deadline), mirrored to "serve.tenant.<name>.deadline_missed".
  std::size_t deadline_missed{0};
  std::size_t infeasible{0};
  std::size_t compile_timeouts{0};
  std::uint64_t makespan_cycles{0};
  std::uint64_t p50_latency_cycles{0};
  std::uint64_t p99_latency_cycles{0};
};

struct ServeStats {
  std::size_t jobs{0};
  std::size_t completed{0};
  std::size_t rejected{0};
  std::size_t shed{0};
  std::size_t deadline_missed{0};
  std::size_t infeasible{0};
  std::size_t compile_timeouts{0};
  /// Jobs served off a degraded pipeline (DS or Basic-then-rescue) because
  /// their deadline budget sat under the degraded-compile watermark.
  std::size_t degraded_serves{0};
  /// Store degradation observed by this run: compile-phase
  /// BatchStats::store_faults plus serve-level injected read faults
  /// ("serve.store.read") — surfaced in summary() so a degraded store
  /// never fails silently.
  std::size_t store_faults{0};
  std::size_t preemptions{0};
  std::size_t transitions{0};
  std::uint64_t transition_cycles{0};
  /// Longest tenant timeline (virtual cycles to drain the trace).
  std::uint64_t makespan_cycles{0};
  /// Arrival-to-finish latency percentiles over completed jobs.
  std::uint64_t p50_latency_cycles{0};
  std::uint64_t p99_latency_cycles{0};
  /// Compile-phase accounting (wall clock).
  engine::BatchStats compile;
  double wall_ms{0.0};
  std::vector<TenantStats> tenants;

  [[nodiscard]] std::string summary() const;
};

struct ServeReport {
  /// outcomes[i] corresponds to trace.events[i].
  std::vector<JobOutcome> outcomes;
  ServeStats stats;
};

/// The output of ServeLoop's serial prepare pass: one compile job per
/// arrival, in trace order.  Only the first arrival of each (workload,
/// tenant) pair resolves the workload, rescales it to the tenant's row
/// share and runs engine::make_input; every later arrival of the pair
/// shares that CompileInput (the same app and sched pointers, hence the
/// same schedule digest) and sets only its own pipeline.
struct PreparedTrace {
  std::vector<engine::Job> jobs;
  /// jobs[i]'s prepared-input index in [0, inputs): equal indices share
  /// one CompileInput.
  std::vector<std::size_t> input_of;
  /// Distinct prepared inputs, i.e. distinct (workload, tenant) pairs.
  std::size_t inputs{0};
  /// "serve.store.read" faults fired during the pass.
  std::size_t store_faults{0};
};

class ServeLoop {
 public:
  ServeLoop(TenantPartition partition, ServeOptions options = {});

  /// Serves the whole trace (see file comment).  Workload resolution
  /// failures (unknown registry name) throw msys::Error — a malformed
  /// trace is a usage error; everything per-job is data in the outcomes.
  [[nodiscard]] ServeReport run(const TraceFile& trace);

  /// run()'s prepare pass on its own (it consults the same serve fault
  /// sites, once per arrival).  Throws like run() on an unknown workload.
  [[nodiscard]] PreparedTrace prepare(const TraceFile& trace) const;

  [[nodiscard]] const TenantPartition& partition() const { return partition_; }

 private:
  TenantPartition partition_;
  ServeOptions options_;
};

}  // namespace msys::serve
