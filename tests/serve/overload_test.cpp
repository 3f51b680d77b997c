// Overload policy: the shed watermark (lowest-priority never-started work
// dropped when a tenant's backlog lower bound busts the threshold), the
// degraded-compile watermark (deadline-starved jobs routed through a
// cheaper fallback entry), and the tenant-isolation yardstick — a flooded
// neighbour plus armed delay-only faults must not move another tenant's
// virtual outcomes.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "msys/common/fault_injector.hpp"
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

/// Every arrival must end as exactly one of the five terminal outcomes,
/// and the stats block must agree with a recount of the records.
void expect_conserved(const ServeReport& report) {
  std::size_t completed = 0, rejected = 0, shed = 0, infeasible = 0, timeouts = 0;
  for (const JobOutcome& o : report.outcomes) {
    if (o.completed()) {
      ++completed;
    } else if (o.status == "rejected") {
      ++rejected;
    } else if (o.status == "shed-overload") {
      ++shed;
    } else if (o.status == "infeasible") {
      ++infeasible;
    } else if (o.status == "compile-timeout") {
      ++timeouts;
    } else {
      ADD_FAILURE() << "unknown status " << o.status;
    }
  }
  EXPECT_EQ(report.stats.jobs, report.outcomes.size());
  EXPECT_EQ(report.stats.completed, completed);
  EXPECT_EQ(report.stats.rejected, rejected);
  EXPECT_EQ(report.stats.shed, shed);
  EXPECT_EQ(report.stats.infeasible, infeasible);
  EXPECT_EQ(report.stats.compile_timeouts, timeouts);
  EXPECT_EQ(report.stats.jobs, completed + rejected + shed + infeasible + timeouts);
  EXPECT_LE(report.stats.deadline_missed, completed + timeouts);
}

TEST(OverloadTest, ShedsLowestPriorityWhenBacklogExceedsWatermark) {
  const Yardstick y = measure_yardstick("random:1000");
  // Five same-instant arrivals on one tenant; the watermark holds roughly
  // two jobs' worth of backlog, so the flood must shed — and must shed
  // the priority-0 work, never the priority-2 job.
  TraceFile trace;
  trace.events.push_back(event(0, 0, "random:1000", 0, /*priority=*/1));
  trace.events.push_back(event(0, 0, "random:1000", 0, /*priority=*/0));
  trace.events.push_back(event(0, 0, "random:1000", 0, /*priority=*/0));
  trace.events.push_back(event(0, 0, "random:1000", 0, /*priority=*/2));
  trace.events.push_back(event(0, 0, "random:1000", 0, /*priority=*/0));

  ServeOptions options;
  options.shed_threshold_cycles = 2 * (y.service + y.switch_in) + y.switch_in / 2;
  ServeLoop loop(make_partition(1), options);
  const ServeReport report = loop.run(trace);

  expect_conserved(report);
  EXPECT_GT(report.stats.shed, 0u);
  EXPECT_EQ(report.stats.shed, report.stats.tenants[0].shed);
  for (const JobOutcome& o : report.outcomes) {
    if (o.status == "shed-overload") {
      EXPECT_EQ(o.priority, 0) << "shed a non-lowest-priority job, index " << o.index;
      EXPECT_FALSE(o.deadline_met);
    }
  }
  // The priority-2 job survives the flood.
  EXPECT_TRUE(report.outcomes[3].completed()) << report.outcomes[3].status;
}

TEST(OverloadTest, ShedNeverCountsAsDeadlineMissed) {
  const Yardstick y = measure_yardstick("random:1000");
  // Every job carries a deadline generous enough to pass admission, so any
  // deadline_missed bump could only come from mis-counting shed work.
  const std::uint64_t generous = 50 * (y.service + y.switch_in);
  TraceFile trace;
  for (int k = 0; k < 6; ++k) {
    trace.events.push_back(event(0, 0, "random:1000", generous, 0));
  }
  ServeOptions options;
  options.shed_threshold_cycles = 2 * (y.service + y.switch_in) + y.switch_in / 2;
  ServeLoop loop(make_partition(1), options);
  const ServeReport report = loop.run(trace);

  expect_conserved(report);
  ASSERT_GT(report.stats.shed, 0u);
  EXPECT_EQ(report.stats.deadline_missed, 0u)
      << "shed jobs leaked into deadline_missed";
  EXPECT_EQ(report.stats.tenants[0].deadline_missed, 0u);
}

TEST(OverloadTest, NewcomerIsShedWhenItIsTheLowestPriority) {
  const Yardstick y = measure_yardstick("random:1000");
  TraceFile trace;
  trace.events.push_back(event(0, 0, "random:1000", 0, /*priority=*/2));
  trace.events.push_back(event(0, 0, "random:1000", 0, /*priority=*/2));
  trace.events.push_back(event(0, 0, "random:1000", 0, /*priority=*/2));
  trace.events.push_back(event(100, 0, "random:1000", 0, /*priority=*/0));

  ServeOptions options;
  options.shed_threshold_cycles = 3 * (y.service + y.switch_in) + y.switch_in / 2;
  ServeLoop loop(make_partition(1), options);
  const ServeReport report = loop.run(trace);

  expect_conserved(report);
  EXPECT_EQ(report.outcomes[3].status, "shed-overload");
  EXPECT_EQ(report.stats.shed, 1u);
  for (int k = 0; k < 3; ++k) {
    EXPECT_TRUE(report.outcomes[static_cast<std::size_t>(k)].completed()) << k;
  }
}

TEST(OverloadTest, RunningJobIsNeverShed) {
  const Yardstick y = measure_yardstick("random:1000");
  // Job 0 is mid-service when a higher-priority flood lands with a
  // watermark too small for everyone: the running job must survive (it is
  // preempted, not shed) even though it has the lowest priority.
  TraceFile trace;
  trace.events.push_back(event(0, 0, "random:1000", 0, /*priority=*/0));
  trace.events.push_back(
      event(y.switch_in + y.service / 2, 0, "random:1001", 0, /*priority=*/2));
  trace.events.push_back(
      event(y.switch_in + y.service / 2, 0, "random:1001", 0, /*priority=*/2));

  ServeOptions options;
  options.shed_threshold_cycles = y.service + 2 * y.switch_in;
  ServeLoop loop(make_partition(1), options);
  const ServeReport report = loop.run(trace);

  expect_conserved(report);
  EXPECT_TRUE(report.outcomes[0].completed())
      << "running job was shed: " << report.outcomes[0].status;
}

TEST(OverloadTest, HighPriorityLatencyIsIndependentOfFloodDepth) {
  const Yardstick y = measure_yardstick("random:1000");
  // A sustained priority-0 flood with the shed watermark on, then one
  // priority-2 arrival mid-flood.  Strict priority preempts for it at
  // once, so doubling the flood's depth must not move its latency at all
  // — the overload bench's "bounded p99 for the highest priority" claim,
  // in miniature.
  const auto latency_under_flood = [&](int flood_jobs) {
    TraceFile trace;
    for (int k = 0; k < 6; ++k) {
      trace.events.push_back(event(static_cast<std::uint64_t>(k) * 1000, 0,
                                   "random:1000", 0, /*priority=*/0));
    }
    trace.events.push_back(event(6000, 0, "random:1001", 0, /*priority=*/2));
    for (int k = 6; k < flood_jobs; ++k) {
      trace.events.push_back(event(static_cast<std::uint64_t>(k) * 1000, 0,
                                   "random:1000", 0, /*priority=*/0));
    }
    ServeOptions options;
    options.shed_threshold_cycles = 3 * (y.service + y.switch_in);
    ServeLoop loop(make_partition(1), options);
    const ServeReport report = loop.run(trace);
    expect_conserved(report);
    EXPECT_GT(report.stats.shed, 0u)
        << "flood of " << flood_jobs << " was expected to overflow the watermark";
    const JobOutcome& hi = report.outcomes[6];
    EXPECT_TRUE(hi.completed()) << hi.status;
    return hi.finish_cycles - hi.arrive_cycles;
  };

  const std::uint64_t shallow = latency_under_flood(12);
  const std::uint64_t deep = latency_under_flood(24);
  EXPECT_EQ(shallow, deep) << "high-priority latency grew with the flood";
  // And it is bounded by the job's own costs plus preemption charges.
  EXPECT_LT(shallow, 4 * (y.service + y.switch_in));
}

/// Strips the leading index field — tenant-relative comparison for the
/// isolation yardstick, where the same job sits at different trace
/// positions in the solo and flooded runs.
std::string line_sans_index(const JobOutcome& o) {
  const std::string line = canonical_outcome_line(o);
  const std::size_t tab = line.find('\t');
  return line.substr(tab + 1);
}

TEST(OverloadTest, TenantOutcomesAreIsolatedFromNeighbourFloodAndFaults) {
  // Yardstick: tenant t1's four jobs served alone, disarmed...
  TraceFile solo;
  for (int k = 0; k < 4; ++k) {
    solo.events.push_back(event(static_cast<std::uint64_t>(k) * 40000, 1,
                                k % 2 == 0 ? "random:1000" : "random:1001", 0, 1));
  }
  ServeOptions options;
  options.shed_threshold_cycles = 400000;
  ServeLoop solo_loop(make_partition(2), options);
  const ServeReport solo_report = solo_loop.run(solo);

  // ...must match the same jobs with tenant t0 flooded into shedding and
  // delay-only compile faults armed (stalls change wall clock only).
  TraceFile flooded = solo;
  for (int k = 0; k < 24; ++k) {
    flooded.events.push_back(
        event(static_cast<std::uint64_t>(k) * 5000, 0, "random:1002", 0, 0));
  }
  std::sort(flooded.events.begin(), flooded.events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.at_cycles != b.at_cycles ? a.at_cycles < b.at_cycles
                                                : a.stream < b.stream;
            });
  FaultInjector& faults = FaultInjector::global();
  ASSERT_TRUE(faults.arm_from_spec(
      "seed=9;serve.compile.stall=1/3:1;engine.compile.stall=1/4:1"));
  ServeLoop flooded_loop(make_partition(2), options);
  const ServeReport flooded_report = flooded_loop.run(flooded);
  faults.disarm();

  expect_conserved(solo_report);
  expect_conserved(flooded_report);
  EXPECT_GT(flooded_report.stats.shed, 0u) << "t0 flood was expected to shed";

  std::vector<std::string> solo_lines, flooded_lines;
  for (const JobOutcome& o : solo_report.outcomes) {
    if (o.tenant == "t1") solo_lines.push_back(line_sans_index(o));
  }
  for (const JobOutcome& o : flooded_report.outcomes) {
    if (o.tenant == "t1") flooded_lines.push_back(line_sans_index(o));
  }
  ASSERT_EQ(solo_lines.size(), 4u);
  EXPECT_EQ(solo_lines, flooded_lines)
      << "a neighbour's overload/faults moved this tenant's outcomes";
}

TEST(OverloadTest, TightDeadlinesCompileDegradedAndAreCounted) {
  const Yardstick y = measure_yardstick("random:1000");
  const std::uint64_t roomy = 20 * (y.service + y.switch_in);
  TraceFile trace;
  trace.events.push_back(event(0, 0, "random:1000", roomy, 0));       // full chain
  trace.events.push_back(event(200000, 0, "random:1001", roomy, 0));  // full chain
  ServeOptions options;
  options.degraded_threshold_cycles = roomy + 1;  // both land under it
  ServeLoop loop(make_partition(1), options);
  const ServeReport degraded = loop.run(trace);

  expect_conserved(degraded);
  EXPECT_EQ(degraded.stats.degraded_serves, 2u);
  for (const JobOutcome& o : degraded.outcomes) {
    EXPECT_TRUE(o.degraded) << o.index;
    EXPECT_TRUE(o.completed()) << o.status;
    // Degraded entry lands on the DS rung (budget >= threshold/2).
    EXPECT_EQ(o.rung, "DS") << o.index;
    // Canonical line carries the flag in the 14th field.
    const std::string line = canonical_outcome_line(o);
    EXPECT_EQ(line.substr(line.size() - 2), "\t1");
  }

  // No-deadline jobs never degrade, whatever the threshold.
  TraceFile free_trace;
  free_trace.events.push_back(event(0, 0, "random:1000", 0, 0));
  ServeLoop free_loop(make_partition(1), options);
  const ServeReport free_report = free_loop.run(free_trace);
  EXPECT_FALSE(free_report.outcomes[0].degraded);
  EXPECT_EQ(free_report.stats.degraded_serves, 0u);
}

TEST(OverloadTest, StarvedDeadlinesFallAllTheWayToBasic) {
  const Yardstick y = measure_yardstick("random:1000");
  const std::uint64_t roomy = 20 * (y.service + y.switch_in);
  TraceFile trace;
  trace.events.push_back(event(0, 0, "random:1000", roomy, 0));
  ServeOptions options;
  // Budget below half the threshold: the compile enters at the Basic rung.
  options.degraded_threshold_cycles = 2 * roomy + 10;
  ServeLoop loop(make_partition(1), options);
  const ServeReport report = loop.run(trace);
  ASSERT_TRUE(report.outcomes[0].completed()) << report.outcomes[0].status;
  EXPECT_TRUE(report.outcomes[0].degraded);
  EXPECT_EQ(report.outcomes[0].rung, "Basic");
}

TEST(OverloadTest, OverloadOutcomesAreDeterministicAcrossThreadCounts) {
  TraceGenSpec spec;
  spec.seed = 77;
  spec.jobs = 32;
  spec.streams = 4;
  spec.mean_gap_cycles = 20000;  // hot: forces queueing and shedding
  spec.deadline_cycles = 900000;
  spec.priorities = 3;
  const TraceFile trace = generate_trace(spec);

  // Disarmed, then with a skewed admission clock on a quarter of the
  // arrivals plus compile stalls.  The skew is drawn in the serial replay,
  // so the same arrivals are skewed at every thread count.
  FaultInjector& faults = FaultInjector::global();
  std::vector<std::string> references;
  for (const char* arming :
       {"", "seed=5;serve.admission.clock_skew=1/4:120000;serve.compile.stall=1/4:1"}) {
    std::string reference;
    for (unsigned threads : {1u, 2u, 4u}) {
      if (*arming != '\0') {
        ASSERT_TRUE(faults.arm_from_spec(arming));
      }
      ServeOptions options;
      options.threads = threads;
      options.shed_threshold_cycles = 600000;
      options.degraded_threshold_cycles = 1000000;
      ServeLoop loop(make_partition(2), options);
      const ServeReport report = loop.run(trace);
      faults.disarm();
      expect_conserved(report);
      std::string lines;
      for (const JobOutcome& o : report.outcomes) {
        lines += canonical_outcome_line(o);
        lines += '\n';
      }
      if (reference.empty()) {
        reference = lines;
      } else {
        EXPECT_EQ(lines, reference) << "arming '" << arming << "', threads=" << threads;
      }
    }
    references.push_back(reference);
  }
  EXPECT_NE(references[0], references[1]) << "the skew moved no outcome";
}

TEST(OverloadTest, ClockSkewShiftsAdmissionDeterministically) {
  const Yardstick y = measure_yardstick("random:1000");
  // The deadline fits exactly without skew; a pessimistic admission clock
  // of +4*service pushes the estimate past it, so the armed run must
  // reject — identically on every repetition and thread count, and
  // without breaking conservation.
  TraceFile trace;
  trace.events.push_back(
      event(0, 0, "random:1000", y.service + y.switch_in + 1000, 0));

  ServeLoop plain(make_partition(1));
  const ServeReport baseline = plain.run(trace);
  ASSERT_EQ(baseline.outcomes[0].status, "done");

  FaultInjector& faults = FaultInjector::global();
  std::ostringstream spec;
  spec << "seed=3;serve.admission.clock_skew=always:" << 4 * y.service;
  std::string reference;
  for (unsigned threads : {1u, 2u}) {
    ASSERT_TRUE(faults.arm_from_spec(spec.str()));
    ServeOptions options;
    options.threads = threads;
    ServeLoop loop(make_partition(1), options);
    const ServeReport skewed = loop.run(trace);
    faults.disarm();
    expect_conserved(skewed);
    EXPECT_EQ(skewed.outcomes[0].status, "rejected");
    const std::string line = canonical_outcome_line(skewed.outcomes[0]);
    if (reference.empty()) {
      reference = line;
    } else {
      EXPECT_EQ(line, reference) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace msys::serve
