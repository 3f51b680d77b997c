// Serving under injected faults: store read/write damage surfaces in
// ServeStats::store_faults (and the summary line) without changing a
// single outcome byte, the serve-level fault sites
// (serve.compile.stall / serve.store.read) are delay- or accounting-only,
// and a store that takes torn writes mid-campaign still serves the same
// bytes warm and fscks clean after one repair sweep.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "msys/common/fault_injector.hpp"
#include "msys/serve/partition.hpp"
#include "msys/serve/serve_loop.hpp"
#include "msys/serve/trace_file.hpp"
#include "msys/store/disk_store.hpp"
#include "testing/scratch.hpp"

namespace msys::serve {
namespace {

namespace fs = std::filesystem;

TenantPartition make_partition(std::uint32_t n) {
  const arch::M1Config m = arch::M1Config::m1_default();
  TenantPartition::BuildResult r =
      TenantPartition::build(m, TenantPartition::even_specs(m, n));
  EXPECT_TRUE(r.ok()) << render(r.diagnostics);
  return *r.partition;
}

TraceFile small_trace() {
  TraceGenSpec spec;
  spec.seed = 5;
  spec.jobs = 8;
  spec.streams = 2;
  spec.mean_gap_cycles = 150000;
  spec.workloads = 3;
  return generate_trace(spec);
}

std::string canonical_lines(const ServeReport& report) {
  std::string out;
  for (const JobOutcome& o : report.outcomes) {
    out += canonical_outcome_line(o);
    out += '\n';
  }
  return out;
}

class ServeFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::scratch_dir();
    fs::remove_all(dir_);
  }

  void TearDown() override {
    FaultInjector::global().disarm();
    fs::remove_all(dir_);
  }

  std::shared_ptr<store::DiskScheduleStore> open_store() {
    store::StoreConfig config;
    config.dir = dir_.string();
    std::string error;
    std::shared_ptr<store::DiskScheduleStore> store =
        store::DiskScheduleStore::open(config, &error);
    EXPECT_NE(store, nullptr) << error;
    return store;
  }

  ServeReport run(const TraceFile& trace,
                  std::shared_ptr<store::DiskScheduleStore> store = nullptr) {
    ServeOptions options;
    options.store = std::move(store);
    ServeLoop loop(make_partition(2), options);
    return loop.run(trace);
  }

  fs::path dir_;
};

TEST_F(ServeFaultTest, StoreReadFaultsSurfaceInStatsAndSummary) {
  const TraceFile trace = small_trace();
  // Warm the store, then make every read attempt fail: each probe
  // exhausts its retry budget, the engine recomputes, and the serve
  // summary must say so instead of failing silently.
  const ServeReport cold = run(trace, open_store());
  EXPECT_EQ(cold.stats.store_faults, 0u);

  ASSERT_TRUE(
      FaultInjector::global().arm_from_spec("seed=11;store.read.io_error=always"));
  const ServeReport degraded = run(trace, open_store());
  FaultInjector::global().disarm();

  EXPECT_GT(degraded.stats.store_faults, 0u);
  EXPECT_EQ(degraded.stats.store_faults, degraded.stats.compile.store_faults);
  EXPECT_NE(degraded.stats.summary().find("store faults"), std::string::npos)
      << degraded.stats.summary();
  // Degradation is transparent to outcomes: recompute == load.
  EXPECT_EQ(canonical_lines(degraded), canonical_lines(cold));
}

TEST_F(ServeFaultTest, TornWritesQuarantineThenServeWarmAndClean) {
  const TraceFile trace = small_trace();
  // Every save lands truncated: loads must quarantine, recompute, and the
  // run still completes with the same bytes as a storeless run.
  ASSERT_TRUE(
      FaultInjector::global().arm_from_spec("seed=13;store.write.torn=always"));
  const ServeReport torn = run(trace, open_store());
  FaultInjector::global().disarm();
  const ServeReport storeless = run(trace);
  EXPECT_EQ(canonical_lines(torn), canonical_lines(storeless));

  // One fsck sweep repairs the directory; the next must find it clean.
  std::shared_ptr<store::DiskScheduleStore> store = open_store();
  (void)store->verify_store();
  const store::FsckReport second = store->verify_store();
  EXPECT_TRUE(second.clean())
      << "scanned=" << second.scanned << " quarantined=" << second.quarantined;

  // And a warm pass over the repaired store serves the same bytes.
  const ServeReport warm = run(trace, std::move(store));
  EXPECT_EQ(canonical_lines(warm), canonical_lines(storeless));
  EXPECT_EQ(warm.stats.store_faults, 0u);
}

TEST_F(ServeFaultTest, ServeStoreReadSiteIsAccountingOnly) {
  const TraceFile trace = small_trace();
  const ServeReport baseline = run(trace);

  // The serve-level site needs no real store: it only tallies degraded
  // reads so summaries can surface them.
  ASSERT_TRUE(
      FaultInjector::global().arm_from_spec("seed=17;serve.store.read=always"));
  const ServeReport armed = run(trace);
  FaultInjector::global().disarm();

  EXPECT_EQ(armed.stats.store_faults, trace.events.size());
  EXPECT_EQ(canonical_lines(armed), canonical_lines(baseline));
}

TEST_F(ServeFaultTest, CompileStallsNeverMoveVirtualOutcomes) {
  const TraceFile trace = small_trace();
  const ServeReport baseline = run(trace);

  ASSERT_TRUE(FaultInjector::global().arm_from_spec(
      "seed=19;serve.compile.stall=1/2:1;engine.compile.stall=1/3:1"));
  ServeOptions options;
  options.threads = 3;
  ServeLoop loop(make_partition(2), options);
  const ServeReport stalled = loop.run(trace);
  EXPECT_GT(FaultInjector::global().total_injected(), 0u);
  FaultInjector::global().disarm();

  EXPECT_EQ(canonical_lines(stalled), canonical_lines(baseline));
}

}  // namespace
}  // namespace msys::serve
