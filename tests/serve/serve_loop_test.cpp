// ServeLoop behaviour: replay determinism across compile thread counts,
// deadline-aware admission, strict-priority preemption with spill/refill
// charges, and mode-transition accounting on the virtual timelines.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "msys/common/error.hpp"
#include "msys/serve/partition.hpp"
#include "msys/serve/serve_loop.hpp"
#include "msys/serve/trace_file.hpp"

namespace msys::serve {
namespace {

TenantPartition make_partition(std::uint32_t n) {
  const arch::M1Config m = arch::M1Config::m1_default();
  TenantPartition::BuildResult r =
      TenantPartition::build(m, TenantPartition::even_specs(m, n));
  EXPECT_TRUE(r.ok()) << render(r.diagnostics);
  return *r.partition;
}

TraceEvent event(std::uint64_t at, std::uint32_t stream, std::string workload,
                 std::uint64_t deadline = 0, int priority = 0) {
  TraceEvent e;
  e.at_cycles = at;
  e.stream = stream;
  e.workload = std::move(workload);
  e.deadline_cycles = deadline;
  e.priority = priority;
  return e;
}

std::string canonical_lines(const ServeReport& report) {
  std::string out;
  for (const JobOutcome& o : report.outcomes) {
    out += canonical_outcome_line(o);
    out += '\n';
  }
  return out;
}

/// Serves a one-job trace and reports the job's (service, switch-in)
/// virtual costs — the yardstick the timing-sensitive tests build
/// arrival times and deadlines from, so they never hard-code cycle
/// counts that drift when the workload generator changes.
struct Yardstick {
  std::uint64_t service{0};
  std::uint64_t switch_in{0};
};

Yardstick measure_yardstick(const std::string& workload) {
  TraceFile probe;
  probe.events.push_back(event(0, 0, workload));
  ServeLoop loop(make_partition(1));
  const ServeReport report = loop.run(probe);
  EXPECT_EQ(report.outcomes[0].status, "done");
  return {report.outcomes[0].service_cycles, report.outcomes[0].transition_cycles};
}

TEST(ServeLoopTest, ReplayIsDeterministicAcrossThreadCounts) {
  TraceGenSpec spec;
  spec.seed = 21;
  spec.jobs = 24;
  spec.streams = 4;
  spec.mean_gap_cycles = 120000;
  spec.deadline_cycles = 20000000;
  const TraceFile trace = generate_trace(spec);

  std::string reference;
  for (unsigned threads : {1u, 3u}) {
    ServeOptions options;
    options.threads = threads;
    ServeLoop loop(make_partition(2), options);
    const ServeReport report = loop.run(trace);
    EXPECT_EQ(report.stats.jobs, trace.events.size());
    const std::string lines = canonical_lines(report);
    if (reference.empty()) {
      reference = lines;
    } else {
      EXPECT_EQ(lines, reference) << "threads=" << threads;
    }
  }
}

TEST(ServeLoopTest, StreamsMapToTenantsModulo) {
  TraceFile trace;
  for (std::uint32_t s = 0; s < 4; ++s) {
    trace.events.push_back(event(1000 * s, s, "random:1000"));
  }
  ServeLoop loop(make_partition(2));
  const ServeReport report = loop.run(trace);
  EXPECT_EQ(report.outcomes[0].tenant, "t0");
  EXPECT_EQ(report.outcomes[1].tenant, "t1");
  EXPECT_EQ(report.outcomes[2].tenant, "t0");
  EXPECT_EQ(report.outcomes[3].tenant, "t1");
  EXPECT_EQ(report.stats.tenants[0].jobs, 2u);
  EXPECT_EQ(report.stats.tenants[1].jobs, 2u);
}

TEST(ServeLoopTest, ArrivalsOfOnePairShareOnePreparedInput) {
  TraceGenSpec spec;
  spec.seed = 31;
  spec.jobs = 40;
  spec.streams = 4;
  spec.deadline_cycles = 2000000;
  spec.workloads = 3;
  TraceFile trace = generate_trace(spec);
  trace.events[5].workload = "E1";
  trace.events[17].workload = "E1";
  ServeOptions options;
  // Part of the arrivals compile degraded: the pipeline is per arrival,
  // the input is not.
  options.degraded_threshold_cycles = 2000000;
  const PreparedTrace prepared = ServeLoop(make_partition(2), options).prepare(trace);
  ASSERT_EQ(prepared.jobs.size(), trace.events.size());
  ASSERT_EQ(prepared.input_of.size(), trace.events.size());

  std::map<std::pair<std::string, std::uint32_t>, std::size_t> first_of;
  std::set<const model::KernelSchedule*> distinct;
  std::set<dsched::Pipeline> pipelines;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& e = trace.events[i];
    const engine::Job& job = prepared.jobs[i];
    pipelines.insert(job.options.pipeline);
    const auto [it, fresh] = first_of.try_emplace({e.workload, e.stream % 2}, i);
    if (fresh) {
      EXPECT_TRUE(distinct.insert(job.input.sched.get()).second) << "arrival " << i;
      continue;
    }
    const engine::Job& first = prepared.jobs[it->second];
    EXPECT_EQ(job.input.sched.get(), first.input.sched.get()) << "arrival " << i;
    EXPECT_EQ(job.input.app.get(), first.input.app.get()) << "arrival " << i;
    EXPECT_EQ(prepared.input_of[i], prepared.input_of[it->second]) << "arrival " << i;
  }
  EXPECT_EQ(prepared.inputs, first_of.size());
  EXPECT_LT(prepared.inputs, trace.events.size());
  EXPECT_GT(pipelines.size(), 1u);
}

TEST(ServeLoopTest, RescaledTenantInputsHaveTheirOwnDigest) {
  TraceFile trace;
  trace.events.push_back(event(0, 0, "random:1000"));
  const PreparedTrace full_rows = ServeLoop(make_partition(1)).prepare(trace);
  const PreparedTrace half_rows = ServeLoop(make_partition(2)).prepare(trace);
  EXPECT_NE(full_rows.jobs[0].input.sched_digest, half_rows.jobs[0].input.sched_digest);
  EXPECT_NE(engine::cache_key(full_rows.jobs[0]), engine::cache_key(half_rows.jobs[0]));
}

TEST(ServeLoopTest, MalformedRandomSeedsAreRejected) {
  // The seed must be the whole rest of the reference: no trailing bytes,
  // no sign, not empty.
  const ServeLoop loop(make_partition(1));
  for (const char* ref : {"random:12abc", "random:-1", "random:"}) {
    TraceFile trace;
    trace.events.push_back(event(0, 0, ref));
    try {
      (void)loop.prepare(trace);
      ADD_FAILURE() << ref << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("malformed workload reference"), std::string::npos)
          << ref << ": " << e.what();
    }
  }
}

TEST(ServeLoopTest, LoneJobPaysOneSwitchInAndFinishesOnTime) {
  TraceFile trace;
  trace.events.push_back(event(5000, 0, "random:1001"));
  ServeLoop loop(make_partition(1));
  const ServeReport report = loop.run(trace);

  const JobOutcome& o = report.outcomes[0];
  EXPECT_EQ(o.status, "done");
  EXPECT_GT(o.service_cycles, 0u);
  EXPECT_GT(o.transition_cycles, 0u);  // cold start: context reload
  EXPECT_EQ(o.start_cycles, o.arrive_cycles + o.transition_cycles);
  EXPECT_EQ(o.finish_cycles, o.arrive_cycles + o.transition_cycles + o.service_cycles);
  EXPECT_EQ(report.stats.transitions, 1u);
  EXPECT_EQ(report.stats.completed, 1u);
  EXPECT_EQ(report.stats.p50_latency_cycles, o.finish_cycles - o.arrive_cycles);
}

TEST(ServeLoopTest, RepeatedModeReloadsContextsOnlyOnce) {
  TraceFile trace;
  for (int k = 0; k < 4; ++k) {
    trace.events.push_back(event(1000 * static_cast<std::uint64_t>(k), 0, "random:1000"));
  }
  ServeLoop loop(make_partition(1));
  const ServeReport report = loop.run(trace);
  EXPECT_EQ(report.stats.completed, 4u);
  EXPECT_EQ(report.stats.transitions, 1u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(report.outcomes[i].transition_cycles, 0u) << i;
  }
}

TEST(ServeLoopTest, AlternatingModesChargeEverySwitch) {
  TraceFile trace;
  for (int k = 0; k < 4; ++k) {
    trace.events.push_back(event(1000 * static_cast<std::uint64_t>(k), 0,
                                 k % 2 == 0 ? "random:1000" : "random:1001"));
  }
  ServeLoop loop(make_partition(1));
  const ServeReport report = loop.run(trace);
  EXPECT_EQ(report.stats.completed, 4u);
  EXPECT_EQ(report.stats.transitions, 4u);
  EXPECT_GT(report.stats.transition_cycles, 0u);
}

TEST(ServeLoopTest, HopelessDeadlineIsRejectedAtAdmission) {
  TraceFile trace;
  trace.events.push_back(event(0, 0, "random:1000", /*deadline=*/1));
  ServeLoop loop(make_partition(1));
  const ServeReport report = loop.run(trace);

  const JobOutcome& o = report.outcomes[0];
  EXPECT_EQ(o.status, "rejected");
  EXPECT_FALSE(o.deadline_met);
  EXPECT_EQ(report.stats.rejected, 1u);
  EXPECT_EQ(report.stats.completed, 0u);
  EXPECT_EQ(report.stats.tenants[0].rejected, 1u);
}

TEST(ServeLoopTest, GenerousDeadlineIsAdmittedAndMet) {
  const Yardstick y = measure_yardstick("random:1000");
  TraceFile trace;
  trace.events.push_back(
      event(0, 0, "random:1000", /*deadline=*/2 * (y.service + y.switch_in)));
  ServeLoop loop(make_partition(1));
  const ServeReport report = loop.run(trace);
  EXPECT_EQ(report.outcomes[0].status, "done");
  EXPECT_TRUE(report.outcomes[0].deadline_met);
  EXPECT_EQ(report.stats.rejected, 0u);
  EXPECT_EQ(report.stats.deadline_missed, 0u);
}

TEST(ServeLoopTest, HigherPriorityPreemptsAndVictimFinishesLate) {
  const Yardstick low = measure_yardstick("random:1000");
  const Yardstick high = measure_yardstick("random:1001");

  // A (priority 0) is admitted with a deadline it would meet undisturbed;
  // B (priority 1) lands mid-service on the same tenant and preempts.  A
  // then pays B's service plus spill/refill and busts its deadline —
  // "late", not "rejected": admission is a lower bound by design.
  TraceFile trace;
  trace.events.push_back(event(0, 0, "random:1000",
                               /*deadline=*/low.switch_in + low.service + 1000,
                               /*priority=*/0));
  trace.events.push_back(event(low.switch_in + low.service / 2, 0, "random:1001",
                               /*deadline=*/0, /*priority=*/1));
  ServeLoop loop(make_partition(1));
  const ServeReport report = loop.run(trace);

  const JobOutcome& victim = report.outcomes[0];
  const JobOutcome& preemptor = report.outcomes[1];
  EXPECT_EQ(preemptor.status, "done");
  EXPECT_EQ(preemptor.preemptions, 0u);
  EXPECT_EQ(victim.status, "late");
  EXPECT_FALSE(victim.deadline_met);
  EXPECT_EQ(victim.preemptions, 1u);
  EXPECT_LT(preemptor.finish_cycles, victim.finish_cycles);
  EXPECT_EQ(report.stats.preemptions, 1u);
  EXPECT_EQ(report.stats.deadline_missed, 1u);
  EXPECT_EQ(report.stats.completed, 2u);
  // The victim's resume pays reload + refill on top of its first switch-in;
  // the preemptor's dispatch carries the victim's spill.
  EXPECT_GT(victim.transition_cycles, low.switch_in);
  EXPECT_GT(preemptor.transition_cycles + victim.transition_cycles,
            low.switch_in + high.switch_in);
}

TEST(ServeLoopTest, TenantTimelinesAreIndependent) {
  // The same two jobs land on one tenant (queueing) vs two tenants
  // (parallel timelines): the second job finishes earlier when the
  // tenants are independent, even though each tenant's rows are fewer.
  TraceFile trace;
  trace.events.push_back(event(0, 0, "random:1000"));
  trace.events.push_back(event(0, 1, "random:1000"));

  ServeLoop one(make_partition(1));
  const ServeReport serial = one.run(trace);
  ASSERT_EQ(serial.stats.completed, 2u);
  // Same tenant: the second job queues behind the first.
  EXPECT_GE(serial.outcomes[1].start_cycles, serial.outcomes[0].finish_cycles);

  ServeLoop two(make_partition(2));
  const ServeReport parallel = two.run(trace);
  ASSERT_EQ(parallel.stats.completed, 2u);
  EXPECT_EQ(parallel.outcomes[0].tenant, "t0");
  EXPECT_EQ(parallel.outcomes[1].tenant, "t1");
  // Independent timelines: both start at their arrival plus one switch-in.
  EXPECT_EQ(parallel.outcomes[1].start_cycles,
            parallel.outcomes[1].arrive_cycles + parallel.outcomes[1].transition_cycles);
}

}  // namespace
}  // namespace msys::serve
