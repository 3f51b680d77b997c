// Pins serve output bytes across commits.  Each test renders canonical
// outcome lines plus ServeStats::summary() and must match its committed
// golden byte for byte:
//
//   serve_outcomes.tsv — one fixed trace, served cold into a fresh
//     DiskScheduleStore and then as a warm restart over it.  The trace
//     mixes generated "random:<seed>" workloads with Table-1 experiments
//     across 8 streams, 3 priorities and 2 tenants, with the shed and
//     degraded watermarks armed, so admission, shedding, preemption,
//     degraded rungs and infeasibility all reach the file.
//   serve_modes.tsv — the virtual-cycle serving table: a steady 48-job
//     trace and its ~10x hotter overload variant (shed and degraded
//     watermarks armed) on 1, 2 and 4 even tenants, plus the p99 latency
//     of the top priority class per row.
//
// Regenerate only with an intentional output change, e.g.
//   MSYS_WRITE_GOLDEN=$PWD/tests/serve/golden/serve_modes.tsv
//     ./build/tests/serve_test --gtest_filter='ServeGolden.*'
// (one command line).  Only the test whose golden has that file name
// rewrites it; the other still compares.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "msys/serve/partition.hpp"
#include "msys/serve/serve_loop.hpp"
#include "msys/serve/trace_file.hpp"
#include "msys/store/disk_store.hpp"
#include "msys/workloads/experiments.hpp"
#include "testing/scratch.hpp"

namespace msys::serve {
namespace {

namespace fs = std::filesystem;

/// 300 generated arrivals; every seventh is re-pointed at a Table-1
/// experiment (cycling through the registry) so hand-built applications
/// share the trace with the random family.
TraceFile golden_trace() {
  TraceGenSpec spec;
  spec.seed = 2027;
  spec.jobs = 300;
  spec.streams = 8;
  spec.mean_gap_cycles = 160000;
  spec.deadline_cycles = 2000000;
  spec.priorities = 3;
  spec.workloads = 12;
  TraceFile trace = generate_trace(spec);
  const std::vector<std::string>& table1 = workloads::table1_experiment_names();
  for (std::size_t i = 0; i < trace.events.size(); i += 7) {
    trace.events[i].workload = table1[(i / 7) % table1.size()];
  }
  return trace;
}

std::string golden_block(const std::string& pass, const ServeReport& report) {
  std::string out = "# " + pass + "\n";
  for (const JobOutcome& o : report.outcomes) {
    out += canonical_outcome_line(o);
    out += '\n';
  }
  out += "summary\t" + report.stats.summary() + "\n";
  return out;
}

/// Compares `current` with the golden at `path`, or rewrites it (and
/// skips) when MSYS_WRITE_GOLDEN names a file of the same name.
void expect_golden(const std::string& current, const char* path) {
  const char* write_path = std::getenv("MSYS_WRITE_GOLDEN");
  if (write_path != nullptr && fs::path(write_path).filename() == fs::path(path).filename()) {
    std::ofstream(write_path) << current;
    GTEST_SKIP() << "golden file rewritten: " << write_path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(current, golden.str()) << "serve outcomes diverged from " << path;
}

/// p99 latency over the completed jobs of the trace's highest priority
/// class, or 0 if none completed: the "sheds instead of collapsing"
/// yardstick of the overload rows.
std::uint64_t p99_top_priority(const ServeReport& report) {
  int top = 0;
  for (const JobOutcome& o : report.outcomes) top = std::max(top, o.priority);
  std::vector<std::uint64_t> latencies;
  for (const JobOutcome& o : report.outcomes) {
    if (o.priority == top && o.completed()) latencies.push_back(o.finish_cycles - o.arrive_cycles);
  }
  if (latencies.empty()) return 0;
  std::sort(latencies.begin(), latencies.end());
  return latencies[(latencies.size() - 1) * 99 / 100];
}

TEST(ServeGolden, ColdAndWarmRestartMatchTheCommittedBytes) {
  const fs::path dir = testing::scratch_dir();
  fs::remove_all(dir);
  store::StoreConfig store_cfg;
  store_cfg.dir = dir.string();
  std::string error;
  ServeOptions options;
  options.threads = 2;
  options.shed_threshold_cycles = 1500000;
  options.degraded_threshold_cycles = 1800000;
  options.store = store::DiskScheduleStore::open(store_cfg, &error);
  ASSERT_NE(options.store, nullptr) << error;

  const arch::M1Config machine = arch::M1Config::m1_default();
  TenantPartition::BuildResult built =
      TenantPartition::build(machine, TenantPartition::even_specs(machine, 2));
  ASSERT_TRUE(built.ok()) << render(built.diagnostics);
  const TraceFile trace = golden_trace();

  const ServeReport cold = ServeLoop(*built.partition, options).run(trace);
  const ServeReport warm = ServeLoop(*built.partition, options).run(trace);
  fs::remove_all(dir);

  // The trace must keep exercising what the golden claims to pin.
  EXPECT_EQ(cold.stats.compile.disk_hits, 0u);
  EXPECT_GT(warm.stats.compile.disk_hits, 0u);
  EXPECT_GT(cold.stats.completed, 0u);
  EXPECT_GT(cold.stats.rejected, 0u);
  EXPECT_GT(cold.stats.shed, 0u);
  EXPECT_GT(cold.stats.degraded_serves, 0u);
  EXPECT_GT(cold.stats.preemptions, 0u);

  expect_golden(golden_block("cold", cold) + golden_block("warm", warm),
                MSYS_SERVE_GOLDEN_FILE);
}

TEST(ServeGolden, ModeTableMatchesTheCommittedBytes) {
  TraceGenSpec steady;
  steady.seed = 42;
  steady.jobs = 48;
  steady.streams = 8;
  steady.mean_gap_cycles = 150000;
  // Tight enough that the 4-tenant row (stretched service on 2-row
  // tenants) sees real admission pressure.
  steady.deadline_cycles = 1000000;
  steady.priorities = 2;
  steady.workloads = 6;
  // Same job mix, arrivals ~10x hotter, deadlines generous enough that
  // admission passes and the shed watermark does the dropping; the
  // degraded watermark (2.2M) cuts through the deadline band (2M ± 25%),
  // so the tighter deadlines take the cheaper DS entry.
  TraceGenSpec hot = steady;
  hot.mean_gap_cycles = 15000;
  hot.deadline_cycles = 2000000;
  hot.priorities = 3;
  const TraceFile steady_trace = generate_trace(steady);
  const TraceFile hot_trace = generate_trace(hot);

  const arch::M1Config machine = arch::M1Config::m1_default();
  std::string current;
  for (const bool overload : {false, true}) {
    for (const unsigned tenants : {1u, 2u, 4u}) {
      TenantPartition::BuildResult built = TenantPartition::build(
          machine, TenantPartition::even_specs(machine, tenants));
      ASSERT_TRUE(built.ok()) << render(built.diagnostics);
      ServeOptions options;
      options.threads = 2;
      if (overload) {
        options.shed_threshold_cycles = 600000;
        options.degraded_threshold_cycles = 2200000;
      }
      const ServeReport report =
          ServeLoop(*built.partition, options).run(overload ? hot_trace : steady_trace);
      const std::string row =
          (overload ? "overload/" : "steady/") + std::to_string(tenants);
      const std::uint64_t p99_top = p99_top_priority(report);
      if (overload) {
        // Overload must shed instead of collapsing, and still finish
        // top-priority work.
        EXPECT_GT(report.stats.shed, 0u) << row;
        EXPECT_GT(p99_top, 0u) << row;
      } else {
        EXPECT_EQ(report.stats.shed, 0u) << row;
      }
      current += golden_block(row, report);
      current += "p99_top_priority\t" + std::to_string(p99_top) + "\n";
    }
  }
  expect_golden(current, MSYS_SERVE_MODES_GOLDEN_FILE);
}

}  // namespace
}  // namespace msys::serve
