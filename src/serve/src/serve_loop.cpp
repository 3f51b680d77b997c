#include "msys/serve/serve_loop.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "msys/common/error.hpp"
#include "msys/common/fault_injector.hpp"
#include "msys/common/strfmt.hpp"
#include "msys/csched/context_plan.hpp"
#include "msys/engine/schedule_cache.hpp"
#include "msys/engine/thread_pool.hpp"
#include "msys/model/application.hpp"
#include "msys/obs/metrics.hpp"
#include "msys/obs/trace.hpp"
#include "msys/workloads/experiments.hpp"

namespace msys::serve {

namespace {

/// A resolved workload reference: the application plus its cluster
/// partition, independent of any tenant (tenants re-scale per job).
struct ResolvedWorkload {
  std::shared_ptr<const model::Application> app;
  std::vector<std::vector<KernelId>> partition;
};

ResolvedWorkload resolve_workload(const std::string& ref) {
  ResolvedWorkload out;
  if (ref.starts_with("random:")) {
    std::uint64_t seed = 0;
    if (!parse_int(std::string_view(ref).substr(7), seed)) {
      raise("malformed workload reference '" + ref + "'");
    }
    workloads::RandomExperiment exp = workloads::make_random(serve_random_spec(seed));
    out.app = std::shared_ptr<const model::Application>(std::move(exp.app));
    for (const model::Cluster& c : exp.sched.clusters()) out.partition.push_back(c.kernels);
    return out;
  }
  workloads::Experiment exp = workloads::make_experiment(ref);  // throws on unknown names
  out.app = std::shared_ptr<const model::Application>(std::move(exp.app));
  for (const model::Cluster& c : exp.sched.clusters()) out.partition.push_back(c.kernels);
  return out;
}

/// Rebuilds `app` with every kernel's exec_cycles scaled by
/// ceil(cycles * num / den) — the row-share slowdown of a tenant owning
/// den of num RC rows.  Ids are preserved (kernels then data objects are
/// replayed in id order), so cluster partitions remain valid.
model::Application scale_application(const model::Application& app, std::uint32_t num,
                                     std::uint32_t den) {
  MSYS_REQUIRE(den >= 1, "row share must be positive");
  model::ApplicationBuilder b(app.name(), app.total_iterations());
  for (const model::Kernel& k : app.kernels()) {
    const std::uint64_t scaled = (k.exec_cycles.value() * num + den - 1) / den;
    const KernelId id = b.kernel(k.name, k.context_words, Cycles{scaled}, {});
    MSYS_REQUIRE(id == k.id, "kernel id not preserved");
  }
  for (const model::DataObject& d : app.data_objects()) {
    const DataId id = d.producer.valid()
                          ? b.output(d.producer, d.name, d.size, d.required_in_external_memory)
                          : b.external_input(d.name, d.size);
    MSYS_REQUIRE(id == d.id, "data id not preserved");
  }
  for (const model::Kernel& k : app.kernels()) {
    for (const DataId input : k.inputs) b.add_input(k.id, input);
  }
  return std::move(b).build();
}

/// Per-job replay state on a tenant's virtual timeline.
struct PendingJob {
  std::size_t idx{0};
  std::uint64_t arrive{0};
  /// Absolute deadline; 0 = none.
  std::uint64_t deadline{0};
  std::uint64_t service{0};
  std::uint64_t remaining{0};
  /// Mode identity == the job's cache key: equal keys need no reload.
  std::uint64_t mode{0};
  ModeFootprint fp;
  int priority{0};
  bool resumed{false};
  bool started{false};
  std::uint32_t preemptions{0};
  std::uint64_t start{0};
  std::uint64_t transition{0};
};

struct Running {
  PendingJob job;
  std::uint64_t work_start{0};
  std::uint64_t finish{0};
};

/// One tenant's deterministic replay: strict-priority dispatch (ties by
/// trace order), deadline-aware admission, preemptive priorities with
/// spill/refill charges, TransitionModel charges on every mode change.
class TenantTimeline {
 public:
  TenantTimeline(const TransitionModel& model, std::vector<JobOutcome>* outcomes,
                 TenantStats* stats, ServeStats* totals,
                 std::uint64_t shed_threshold)
      : model_(&model),
        outcomes_(outcomes),
        stats_(stats),
        totals_(totals),
        shed_threshold_(shed_threshold) {}

  void arrive(PendingJob j) {
    advance(j.arrive);
    now_ = std::max(now_, j.arrive);

    // Fault site: a skewed admission clock.  One consult per arrival (the
    // replay is serial and trace-ordered, so occurrence numbering — and
    // with it every decision — is identical at any compile thread count).
    // The skew only makes admission *more* pessimistic; it can move jobs
    // between admitted/rejected/shed, never break conservation.
    std::uint64_t skew = 0;
    if (auto& faults = FaultInjector::global(); faults.armed()) {
      skew = faults.fire_param("serve.admission.clock_skew");
    }

    // Admission: reject when the backlog of same-or-higher-priority work
    // already pushes the estimated finish past the deadline.  The
    // estimate ignores future higher-priority arrivals (it is a lower
    // bound, so an admitted job can still finish "late").
    if (j.deadline != 0) {
      std::uint64_t est = now_ + skew;
      if (running_) {
        est += running_->job.priority >= j.priority
                   ? running_->finish - now_
                   : model_->spill_cycles(running_->job.fp).value();
      }
      for (const PendingJob& q : queue_) {
        if (q.priority >= j.priority) est += q.remaining;
      }
      const bool warm = resident_.has_value() && *resident_ == j.mode && !running_ &&
                        queue_.empty();
      if (!warm) est += model_->reload_cycles(j.fp).value();
      if (est + j.service > j.deadline) {
        JobOutcome& o = (*outcomes_)[j.idx];
        o.status = "rejected";
        o.service_cycles = j.service;
        o.deadline_met = false;
        ++stats_->rejected;
        ++totals_->rejected;
        return;
      }
    }

    // Overload watermark: shed the cheapest-to-lose work when admitting
    // this arrival would push the backlog lower bound — running remainder
    // + queued work + the newcomer's reload and service — past the
    // threshold.  Victims are the lowest-priority *never-started* jobs
    // (ties drop the youngest); started work keeps its sunk transition
    // cost, and the running job is never touched.  When the newcomer
    // itself is the lowest-priority candidate, it is the one shed.
    if (shed_threshold_ != 0) {
      std::uint64_t backlog = pending_spill_ + skew;
      if (running_) backlog += running_->finish - now_;
      for (const PendingJob& q : queue_) backlog += q.remaining;
      backlog += model_->reload_cycles(j.fp).value() + j.remaining;
      while (backlog > shed_threshold_) {
        std::size_t victim = queue_.size();  // sentinel: the newcomer
        int vprio = j.priority;
        std::uint64_t vidx = j.idx;
        for (std::size_t i = 0; i < queue_.size(); ++i) {
          const PendingJob& q = queue_[i];
          if (q.started) continue;
          if (q.priority < vprio || (q.priority == vprio && q.idx > vidx)) {
            victim = i;
            vprio = q.priority;
            vidx = q.idx;
          }
        }
        if (victim == queue_.size()) {
          shed(std::move(j));
          return;
        }
        backlog -= queue_[victim].remaining;
        shed(std::move(queue_[victim]));
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(victim));
      }
    }

    if (running_ && j.priority > running_->job.priority) preempt();
    queue_.push_back(std::move(j));
  }

  void drain() {
    while (running_ || !queue_.empty()) {
      advance(running_ ? running_->finish : now_ + 1);
    }
  }

  [[nodiscard]] std::uint64_t makespan() const { return makespan_; }
  [[nodiscard]] const std::vector<std::uint64_t>& latencies() const { return latencies_; }

 private:
  /// Records a shed outcome.  Deliberately does NOT touch deadline_missed:
  /// shedding is a capacity decision made before the job ran, not an SLO
  /// miss (ServeLoop::run asserts the two never double-count).
  void shed(PendingJob j) {
    JobOutcome& o = (*outcomes_)[j.idx];
    o.status = "shed-overload";
    o.service_cycles = j.service;
    o.transition_cycles = j.transition;
    o.preemptions = j.preemptions;
    o.deadline_met = false;
    ++stats_->shed;
    ++totals_->shed;
  }

  void preempt() {
    PendingJob j = std::move(running_->job);
    const std::uint64_t progress =
        now_ > running_->work_start ? now_ - running_->work_start : 0;
    j.remaining -= std::min(progress, j.remaining);
    j.resumed = true;
    ++j.preemptions;
    // The victim's working set leaves the FB now; the charge lands on the
    // next dispatch (the preemptor's switch-in occupies the channel).
    pending_spill_ += model_->spill_cycles(j.fp).value();
    ++totals_->preemptions;
    queue_.push_back(std::move(j));
    running_.reset();
  }

  /// Runs the timeline forward to t_limit, dispatching and completing.
  void advance(std::uint64_t t_limit) {
    while (true) {
      if (running_) {
        if (running_->finish > t_limit) {
          now_ = t_limit;
          return;
        }
        complete();
        continue;
      }
      if (queue_.empty()) {
        now_ = std::max(now_, t_limit);
        return;
      }
      dispatch();
    }
  }

  void dispatch() {
    std::size_t best = 0;
    for (std::size_t i = 1; i < queue_.size(); ++i) {
      if (queue_[i].priority > queue_[best].priority ||
          (queue_[i].priority == queue_[best].priority &&
           queue_[i].idx < queue_[best].idx)) {
        best = i;
      }
    }
    PendingJob j = std::move(queue_[best]);
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));

    std::uint64_t trans = pending_spill_;
    pending_spill_ = 0;
    const bool mode_change = !resident_.has_value() || *resident_ != j.mode || j.resumed;
    if (mode_change) {
      trans += model_->switch_in_cycles(j.fp, j.resumed).value();
      ++totals_->transitions;
    }
    totals_->transition_cycles += trans;
    if (!j.started) {
      j.started = true;
      j.start = now_ + trans;
    }
    j.transition += trans;
    resident_ = j.mode;
    Running r;
    r.work_start = now_ + trans;
    r.finish = now_ + trans + j.remaining;
    r.job = std::move(j);
    running_ = std::move(r);
  }

  void complete() {
    const PendingJob& j = running_->job;
    const std::uint64_t end = running_->finish;
    const std::uint64_t latency = end - j.arrive;
    const bool late = j.deadline != 0 && end > j.deadline;
    JobOutcome& o = (*outcomes_)[j.idx];
    o.status = late ? "late" : "done";
    o.start_cycles = j.start;
    o.finish_cycles = end;
    o.service_cycles = j.service;
    o.transition_cycles = j.transition;
    o.preemptions = j.preemptions;
    o.deadline_met = !late;
    ++stats_->completed;
    ++totals_->completed;
    if (late) {
      ++stats_->deadline_missed;
      ++totals_->deadline_missed;
    }
    latencies_.push_back(latency);
    makespan_ = std::max(makespan_, end);
    stats_->makespan_cycles = makespan_;
    now_ = end;
    running_.reset();
  }

  const TransitionModel* model_;
  std::vector<JobOutcome>* outcomes_;
  TenantStats* stats_;
  ServeStats* totals_;
  std::uint64_t shed_threshold_{0};

  std::uint64_t now_{0};
  std::optional<std::uint64_t> resident_;
  std::optional<Running> running_;
  std::vector<PendingJob> queue_;
  std::uint64_t pending_spill_{0};
  std::uint64_t makespan_{0};
  std::vector<std::uint64_t> latencies_;
};

/// Nearest-rank percentile over an unsorted sample (copied + sorted).
std::uint64_t percentile(std::vector<std::uint64_t> sample, std::uint32_t pct) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  const std::size_t rank = (pct * sample.size() + 99) / 100;
  return sample[std::max<std::size_t>(rank, 1) - 1];
}

}  // namespace

std::string canonical_outcome_line(const JobOutcome& o) {
  std::ostringstream os;
  os << o.index << "\t" << o.tenant << "\t" << o.workload << "\t" << o.status << "\t"
     << o.rung << "\t" << o.priority << "\t" << o.arrive_cycles << "\t" << o.start_cycles
     << "\t" << o.finish_cycles << "\t" << o.service_cycles << "\t" << o.transition_cycles
     << "\t" << o.preemptions << "\t" << (o.deadline_met ? 1 : 0) << "\t"
     << (o.degraded ? 1 : 0);
  return os.str();
}

std::string ServeStats::summary() const {
  std::ostringstream os;
  os << "served " << jobs << " jobs across " << tenants.size() << " tenants: " << completed
     << " completed, " << rejected << " rejected, " << shed << " shed, "
     << deadline_missed << " missed deadline, " << infeasible << " infeasible, "
     << compile_timeouts << " compile timeouts, " << degraded_serves
     << " degraded serves, " << store_faults << " store faults; p50 "
     << p50_latency_cycles << " / p99 " << p99_latency_cycles
     << " cycles, " << transitions << " mode transitions (" << transition_cycles
     << " cycles), makespan " << makespan_cycles << " cycles";
  return os.str();
}

ServeLoop::ServeLoop(TenantPartition partition, ServeOptions options)
    : partition_(std::move(partition)), options_(std::move(options)) {}

PreparedTrace ServeLoop::prepare(const TraceFile& trace) const {
  MSYS_TRACE_SPAN(prep, "serve.prepare", "serve");
  const std::size_t n_tenants = partition_.tenant_count();
  PreparedTrace out;
  out.jobs.reserve(trace.events.size());
  out.input_of.reserve(trace.events.size());
  std::map<std::string, ResolvedWorkload> resolved;
  std::map<std::pair<std::string, std::size_t>, std::size_t> index;
  std::vector<engine::CompileInput> inputs;
  for (const TraceEvent& e : trace.events) {
    const std::size_t t = e.stream % n_tenants;

    if (auto& faults = FaultInjector::global(); faults.armed()) {
      // Fault site: stall the prepare pass.  Wall-clock delay only — the
      // virtual replay must produce the same bytes with or without it.
      if (const std::uint64_t ms = faults.fire_param("serve.compile.stall"); ms != 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      }
      // Fault site: a serve-level degraded store read for this event.
      // Accounting-only (results are unchanged): it feeds the same
      // store-fault tally that real BatchStats::store_faults land in, so
      // summaries can be exercised without a disk store.
      if (faults.should_fail("serve.store.read")) ++out.store_faults;
    }

    const auto [slot, fresh] = index.try_emplace({e.workload, t}, inputs.size());
    if (fresh) {
      auto it = resolved.find(e.workload);
      if (it == resolved.end()) {
        it = resolved.emplace(e.workload, resolve_workload(e.workload)).first;
      }
      const TenantSpec& spec = partition_.tenant(t);
      model::Application app =
          spec.rc_rows == partition_.full_rows()
              ? model::Application(*it->second.app)
              : scale_application(*it->second.app, partition_.full_rows(), spec.rc_rows);
      inputs.push_back(engine::make_input(std::move(app), it->second.partition,
                                          partition_.virtual_config(t)));
    }
    out.input_of.push_back(slot->second);
    engine::Job job;
    job.input = inputs[slot->second];
    // Degraded-compile routing is decided here, in the serial prepare pass,
    // from the trace event alone — a virtual-time policy, so the decision
    // (and with it every outcome byte) is identical at any thread count.
    if (options_.degraded_threshold_cycles != 0 && e.deadline_cycles != 0 &&
        e.deadline_cycles < options_.degraded_threshold_cycles) {
      // Deadline budget under the watermark: compile a cheaper pipeline
      // (Basic, rescued by DS at RF 1, below half the watermark; DS
      // otherwise) — a worse schedule now beats a perfect one after the
      // deadline.  The pipeline is part of the cache key, so a degraded DS
      // compile shares its entries with any DS job, never with a CDS one.
      job.options.pipeline = e.deadline_cycles * 2 < options_.degraded_threshold_cycles
                                 ? dsched::Pipeline::kBasicThenRescue
                                 : dsched::Pipeline::kDS;
    }
    out.jobs.push_back(std::move(job));
  }
  out.inputs = inputs.size();
  return out;
}

ServeReport ServeLoop::run(const TraceFile& trace) {
  MSYS_TRACE_SPAN(span, "serve.run", "serve");
  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t n_tenants = partition_.tenant_count();
  const std::size_t n_events = trace.events.size();

  ServeReport report;
  report.outcomes.resize(n_events);
  report.stats.jobs = n_events;
  report.stats.tenants.resize(n_tenants);
  for (std::size_t t = 0; t < n_tenants; ++t) {
    report.stats.tenants[t].name = partition_.tenant(t).name;
  }

  // --- Phase 1: compile every arrival against its tenant's virtual
  // machine (parallel, cached, single-flight; wall clock).
  const PreparedTrace prepared = prepare(trace);

  engine::BatchStats& cstats = report.stats.compile;
  std::vector<engine::JobResult> results;
  {
    MSYS_TRACE_SPAN(comp, "serve.compile", "serve");
    engine::ThreadPool pool(options_.threads);
    engine::ScheduleCache cache(options_.store);
    engine::BatchRunner runner(pool, &cache);
    engine::RunOptions ropts;
    ropts.cancel = options_.cancel;
    ropts.job_deadline = options_.compile_deadline;
    results = runner.run(prepared.jobs, ropts, &cstats);
  }

  // --- Phase 2: deterministic virtual-time replay per tenant.
  static obs::Counter& c_arrived = obs::counter("serve.jobs.arrived");
  static obs::Counter& c_completed = obs::counter("serve.jobs.completed");
  static obs::Counter& c_rejected = obs::counter("serve.jobs.rejected");
  static obs::Counter& c_shed = obs::counter("serve.jobs.shed");
  static obs::Counter& c_missed = obs::counter("serve.jobs.deadline_missed");
  static obs::Counter& c_infeasible = obs::counter("serve.jobs.infeasible");
  static obs::Counter& c_timeout = obs::counter("serve.jobs.compile_timeout");
  static obs::Counter& c_degraded = obs::counter("serve.degraded_serves");
  static obs::Counter& c_store_faults = obs::counter("serve.store_faults");
  static obs::Counter& c_transitions = obs::counter("serve.transitions");
  static obs::Counter& c_transition_cycles = obs::counter("serve.transition_cycles");
  static obs::Counter& c_preempt = obs::counter("serve.preemptions");
  c_arrived.add(n_events);

  TransitionModel model(partition_.machine().dma);
  std::vector<TenantTimeline> timelines;
  timelines.reserve(n_tenants);
  for (std::size_t t = 0; t < n_tenants; ++t) {
    timelines.emplace_back(model, &report.outcomes, &report.stats.tenants[t],
                           &report.stats, options_.shed_threshold_cycles);
  }

  {
    MSYS_TRACE_SPAN(replay, "serve.replay", "serve");
    // One context plan per prepared input, built on its first feasible
    // arrival: every result for that input carries a content-identical
    // schedule (same cache key), so the plan is the same for all of them.
    std::vector<std::optional<csched::ContextPlan>> plans(prepared.inputs);
    for (std::size_t i = 0; i < n_events; ++i) {
      const TraceEvent& e = trace.events[i];
      const std::size_t t = e.stream % n_tenants;
      const TenantSpec& spec = partition_.tenant(t);
      const engine::JobResult& r = results[i];
      JobOutcome& o = report.outcomes[i];
      o.index = i;
      o.tenant = spec.name;
      o.workload = e.workload;
      // The tenant's base priority plus the event's per-job priority.
      o.priority = spec.priority + e.priority;
      o.arrive_cycles = e.at_cycles;
      o.rung = "-";
      o.degraded = prepared.jobs[i].options.pipeline != dsched::Pipeline::kCDS;
      ++report.stats.tenants[t].jobs;

      if (r.cancelled()) {
        o.status = "compile-timeout";
        o.deadline_met = false;
        ++report.stats.compile_timeouts;
        ++report.stats.tenants[t].compile_timeouts;
        ++report.stats.tenants[t].deadline_missed;
        ++report.stats.deadline_missed;
        continue;
      }
      if (!r.feasible()) {
        o.status = "infeasible";
        ++report.stats.infeasible;
        ++report.stats.tenants[t].infeasible;
        continue;
      }

      const dsched::ScheduleOutcome& outcome = r.result->outcome;
      o.rung = outcome.chosen_rung();
      std::optional<csched::ContextPlan>& plan = plans[prepared.input_of[i]];
      if (!plan) {
        const engine::CompileInput& input = prepared.jobs[i].input;
        plan = csched::ContextPlan::build(*input.sched, input.cfg.cm_capacity_words);
      }

      PendingJob j;
      j.idx = i;
      j.arrive = e.at_cycles;
      j.deadline = e.deadline_cycles == 0 ? 0 : e.at_cycles + e.deadline_cycles;
      j.service = r.result->predicted.total.value();
      j.remaining = j.service;
      j.mode = r.key;
      j.fp = footprint_of(outcome.schedule, *plan);
      j.priority = o.priority;
      timelines[t].arrive(std::move(j));
    }
    for (TenantTimeline& tl : timelines) tl.drain();
  }

  // --- Aggregate.
  std::vector<std::uint64_t> all_latencies;
  for (std::size_t t = 0; t < n_tenants; ++t) {
    TenantStats& ts = report.stats.tenants[t];
    const std::vector<std::uint64_t>& lat = timelines[t].latencies();
    ts.p50_latency_cycles = percentile(lat, 50);
    ts.p99_latency_cycles = percentile(lat, 99);
    all_latencies.insert(all_latencies.end(), lat.begin(), lat.end());
    report.stats.makespan_cycles =
        std::max(report.stats.makespan_cycles, timelines[t].makespan());
    if (ts.deadline_missed > 0) {
      obs::counter("serve.tenant." + ts.name + ".deadline_missed").add(ts.deadline_missed);
    }
    if (ts.shed > 0) {
      obs::counter("serve.tenant." + ts.name + ".shed").add(ts.shed);
    }
    // Conservation: every arrival ended as exactly one of completed /
    // rejected / shed / infeasible / compile-timeout — a shed or rejected
    // job that also completed (or vanished) is an accounting bug, and a
    // shed job must never moonlight as a missed deadline.
    MSYS_REQUIRE(ts.jobs == ts.completed + ts.rejected + ts.shed + ts.infeasible +
                                ts.compile_timeouts,
                 "serve conservation violated for tenant " + ts.name);
    MSYS_REQUIRE(ts.deadline_missed <= ts.completed + ts.compile_timeouts,
                 "deadline_missed double-counts shed/rejected work for tenant " +
                     ts.name);
  }
  report.stats.p50_latency_cycles = percentile(all_latencies, 50);
  report.stats.p99_latency_cycles = percentile(std::move(all_latencies), 99);
  MSYS_REQUIRE(report.stats.jobs == report.stats.completed + report.stats.rejected +
                                        report.stats.shed + report.stats.infeasible +
                                        report.stats.compile_timeouts,
               "serve conservation violated across tenants");

  // A job is a degraded *serve* only when the cheap-rung compile actually
  // carried it to completion; degraded jobs that were shed or rejected
  // keep the TSV flag but do not count.
  for (const JobOutcome& o : report.outcomes) {
    if (o.degraded && o.completed()) ++report.stats.degraded_serves;
  }
  // Store degradation observed by this run: real store faults from the
  // compile phase plus serve-level injected read faults — surfaced here so
  // a degraded store shows up in the serve summary instead of vanishing.
  report.stats.store_faults = report.stats.compile.store_faults + prepared.store_faults;

  c_completed.add(report.stats.completed);
  c_rejected.add(report.stats.rejected);
  c_shed.add(report.stats.shed);
  c_missed.add(report.stats.deadline_missed);
  c_infeasible.add(report.stats.infeasible);
  c_timeout.add(report.stats.compile_timeouts);
  c_degraded.add(report.stats.degraded_serves);
  c_store_faults.add(report.stats.store_faults);
  c_transitions.add(report.stats.transitions);
  c_transition_cycles.add(report.stats.transition_cycles);
  c_preempt.add(report.stats.preemptions);

  report.stats.wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                wall_start)
          .count();
  if (span.active()) {
    span.add_arg(obs::arg("jobs", static_cast<std::uint64_t>(n_events)));
    span.add_arg(obs::arg("tenants", static_cast<std::uint64_t>(n_tenants)));
    span.add_arg(obs::arg("completed", static_cast<std::uint64_t>(report.stats.completed)));
  }
  return report;
}

}  // namespace msys::serve
