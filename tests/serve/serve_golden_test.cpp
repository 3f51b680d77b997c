// Pins serve output bytes across commits: the canonical outcome lines and
// ServeStats::summary() of one fixed trace, served cold into a fresh
// DiskScheduleStore and then as a warm restart over it, must match
// tests/serve/golden/serve_outcomes.tsv byte for byte.
//
// The trace mixes generated "random:<seed>" workloads with Table-1
// experiments across 8 streams, 3 priorities and 2 tenants, with the shed
// and degraded watermarks armed, so admission, shedding, preemption,
// degraded rungs and infeasibility all reach the file.
//
// Regenerate only with an intentional output change:
//   MSYS_WRITE_GOLDEN=$PWD/tests/serve/golden/serve_outcomes.tsv
//     ./build/tests/serve_test --gtest_filter='ServeGolden.*'
// (one command line).
#include <gtest/gtest.h>

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

TEST(ServeGolden, ColdAndWarmRestartMatchTheCommittedBytes) {
  const fs::path dir = fs::temp_directory_path() / "msys_serve_golden_test";
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

  const std::string current = golden_block("cold", cold) + golden_block("warm", warm);
  if (const char* write_path = std::getenv("MSYS_WRITE_GOLDEN")) {
    std::ofstream(write_path) << current;
    GTEST_SKIP() << "golden file rewritten: " << write_path;
  }
  std::ifstream in(MSYS_SERVE_GOLDEN_FILE);
  ASSERT_TRUE(in.good()) << MSYS_SERVE_GOLDEN_FILE;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(current, golden.str()) << "serve outcomes diverged from the committed golden";
}

}  // namespace
}  // namespace msys::serve
