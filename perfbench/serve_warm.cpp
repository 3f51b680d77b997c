// serve-warm: warm restarts of the server over a filled schedule store.
//
// Set-up generates a near-capacity trace (8 streams, 3 priorities,
// deadlines) and fills a DiskScheduleStore by serving it once.  The timed
// loop then restarts ServeLoop over that store again and again: each
// restart gets a fresh memory cache, so engine and store serve reads
// (disk-hit decode replay for a key's first arrival, memory hits and
// single-flight waits after it) and dsched runs only for arrivals the
// degraded watermark sends to the DS/Basic rungs.  Two tenants, two
// compile threads, shed and degraded watermarks armed.
//
// The trace is served as kWindows consecutive slices, one ServeLoop::run
// (one warm restart) each.  The slices cost the same within a few percent,
// so the p90 of single restarts would measure the host's hiccups, not the
// program; latency_tail_ms is the slowest slice's median restart time.
#include <algorithm>
#include <filesystem>
#include <optional>
#include <unistd.h>

#include "bench.hpp"
#include "msys/common/error.hpp"
#include "msys/serve/partition.hpp"
#include "msys/serve/serve_loop.hpp"
#include "msys/serve/trace_file.hpp"

namespace perfbench {
namespace {

using namespace msys;
namespace fs = std::filesystem;

constexpr std::uint32_t kArrivals = 20000;
constexpr std::size_t kWindows = 16;
constexpr std::uint32_t kDistinctWorkloads = 48;
constexpr std::uint64_t kMeanGapCycles = 240000;
constexpr std::uint64_t kDeadlineCycles = 2000000;
constexpr std::uint64_t kShedCycles = 1500000;
constexpr std::uint64_t kDegradedCycles = 1800000;
/// Restarts of every slice a run needs for latency_tail_ms.
constexpr std::size_t kMinRestartsPerWindow = kMinBeyond;

class ServeWarm final : public Workload {
 public:
  explicit ServeWarm(std::string scratch_dir)
      : store_dir_(fs::path(scratch_dir) / ("serve-store-" + std::to_string(::getpid()))) {}
  ~ServeWarm() override {
    std::error_code ec;
    fs::remove_all(store_dir_, ec);
  }

  const char* name() const override { return "serve-warm"; }
  double tail_percentile() const override { return 1.0; }  // the slowest slice

  std::optional<double> latency_tail(const std::vector<double>& latency_ms) const override {
    // measure() serves the slices in order, pass after pass: sample k is
    // slice k % kWindows.
    std::vector<std::vector<double>> per_window(windows_.size());
    for (std::size_t k = 0; k < latency_ms.size(); ++k) {
      per_window[k % windows_.size()].push_back(latency_ms[k]);
    }
    double slowest = 0.0;
    for (const std::vector<double>& restarts : per_window) {
      if (restarts.size() < kMinRestartsPerWindow) return std::nullopt;
      slowest = std::max(slowest, median(restarts));
    }
    return slowest;
  }

  void setup(std::uint64_t seed) override {
    serve::TraceGenSpec spec;
    spec.seed = seed;
    spec.jobs = kArrivals;
    spec.streams = 8;
    spec.mean_gap_cycles = kMeanGapCycles;
    spec.deadline_cycles = kDeadlineCycles;
    spec.priorities = 3;
    spec.workloads = kDistinctWorkloads;
    const serve::TraceFile trace = serve::generate_trace(spec);
    windows_.clear();
    const std::size_t per = (trace.events.size() + kWindows - 1) / kWindows;
    for (std::size_t begin = 0; begin < trace.events.size(); begin += per) {
      serve::TraceFile w;
      w.seed = trace.seed;
      const std::size_t end = std::min(trace.events.size(), begin + per);
      w.events.assign(trace.events.begin() + static_cast<std::ptrdiff_t>(begin),
                      trace.events.begin() + static_cast<std::ptrdiff_t>(end));
      windows_.push_back(std::move(w));
    }

    const arch::M1Config machine = arch::M1Config::m1_default();
    serve::TenantPartition::BuildResult built =
        serve::TenantPartition::build(machine, serve::TenantPartition::even_specs(machine, 2));
    MSYS_REQUIRE(built.ok(), "two-tenant partition must build: " + render(built.diagnostics));
    partition_.emplace(std::move(*built.partition));

    std::error_code ec;
    fs::remove_all(store_dir_, ec);
    fs::create_directories(store_dir_, ec);
    store::StoreConfig store_cfg;
    store_cfg.dir = store_dir_.string();
    std::string error;
    options_ = {};
    options_.threads = 2;
    options_.shed_threshold_cycles = kShedCycles;
    options_.degraded_threshold_cycles = kDegradedCycles;
    options_.store = store::DiskScheduleStore::open(store_cfg, &error);
    MSYS_REQUIRE(options_.store != nullptr, "cannot open the schedule store: " + error);

    // Fill the store and record the reference outcomes.
    reference_.clear();
    totals_ = {};
    fingerprint_ = {};
    std::vector<double> latencies;
    for (const serve::TraceFile& w : windows_) {
      const serve::ServeReport report = serve::ServeLoop(*partition_, options_).run(w);
      reference_.push_back(outcome_hash(report));
      fingerprint_.add(reference_.back());
      totals_.transitions += report.stats.transitions;
      totals_.preemptions += report.stats.preemptions;
      totals_.degraded_serves += report.stats.degraded_serves;
      totals_.rejected += report.stats.rejected;
      totals_.shed += report.stats.shed;
      for (const serve::JobOutcome& o : report.outcomes) {
        if (o.completed()) {
          latencies.push_back(static_cast<double>(o.finish_cycles - o.arrive_cycles));
        }
      }
    }
    p99_vcycles_ = static_cast<std::uint64_t>(percentile(latencies, 0.99).value_or(0.0));
  }

  Measurement measure(double seconds, Tally& tally, SpeedReference& speed) override {
    Measurement m;
    m.output_cycles = p99_vcycles_;
    m.wall_s = passes(
        seconds,
        [&](std::size_t i) {
          const auto t0 = Clock::now();
          const serve::ServeReport report =
              serve::ServeLoop(*partition_, options_).run(windows_[i]);
          m.add(t0, Clock::now(), windows_[i].events.size());
          check(i, report, tally);
        },
        &speed);
    return m;
  }

  TracedSummary trace(double seconds, Tally& tally, Metrics& layers) override {
    engine::BatchStats compile;  // summed over the untraced restarts
    std::uint64_t restarts = 0;
    passes(seconds * 0.6, [&](std::size_t i) {
      const serve::ServeReport report = serve::ServeLoop(*partition_, options_).run(windows_[i]);
      check(i, report, tally);
      const engine::BatchStats& c = report.stats.compile;
      compile.jobs += c.jobs;
      compile.cache_hits += c.cache_hits;
      compile.cache_misses += c.cache_misses;
      compile.disk_hits += c.disk_hits;
      compile.hit_latency_ms_total += c.hit_latency_ms_total;
      compile.miss_latency_ms_total += c.miss_latency_ms_total;
      compile.inflight_wait_ms_total += c.inflight_wait_ms_total;
      ++restarts;
    });
    // Tracing overhead: each window served untraced and traced, back to
    // back, alternating which goes first.
    double untraced_us = 0, traced_us = 0;
    std::uint64_t pairs = 0;
    SpanCollector spans;
    passes(seconds * 0.4, [&](std::size_t i) {
      auto serve_once = [&] {
        const auto t0 = Clock::now();
        check(i, serve::ServeLoop(*partition_, options_).run(windows_[i]), tally);
        return us_between(t0, Clock::now());
      };
      const bool traced_first = pairs++ % 2 == 1;
      if (!traced_first) untraced_us += serve_once();
      spans.record([&] { traced_us += serve_once(); });
      if (traced_first) untraced_us += serve_once();
    });
    layers["serve.prepare_ms"] = {spans["serve.prepare"].mean_us() / 1000.0, "ms"};
    layers["serve.compile_ms"] = {spans["serve.compile"].mean_us() / 1000.0, "ms"};
    layers["serve.compile_self_ms"] = {spans["serve.compile"].self_mean_us() / 1000.0, "ms"};
    layers["serve.replay_ms"] = {spans["serve.replay"].mean_us() / 1000.0, "ms"};
    layers["engine.hit_ratio"] = {ratio(compile.cache_hits, compile.jobs), "ratio"};
    layers["engine.disk_hit_ratio"] = {ratio(compile.disk_hits, compile.jobs), "ratio"};
    layers["engine.avg_hit_us"] = {compile.avg_hit_ms() * 1000.0, "us"};
    layers["engine.avg_disk_hit_us"] = {compile.avg_miss_ms() * 1000.0, "us"};
    layers["engine.inflight_wait_ms"] = {
        compile.inflight_wait_ms_total / static_cast<double>(restarts), "ms"};
    layers["serve.transitions"] = {static_cast<double>(totals_.transitions), "count"};
    layers["serve.preemptions"] = {static_cast<double>(totals_.preemptions), "count"};
    layers["serve.degraded_serves"] = {static_cast<double>(totals_.degraded_serves), "count"};
    layers["serve.refused_share"] = {ratio(totals_.rejected + totals_.shed, kArrivals), "ratio"};

    TracedSummary s;
    const SpanStat run = spans["serve.run"];
    s.stage_coverage = (spans["serve.prepare"].total_us + spans["serve.compile"].total_us +
                        spans["serve.replay"].total_us) /
                       run.total_us;
    s.trace_overhead_pct = 100.0 * (traced_us / untraced_us - 1.0);
    return s;
  }

 private:
  template <class Fn>
  double passes(double seconds, Fn&& fn, SpeedReference* speed = nullptr) {
    return run_passes(seconds, windows_.size(), fn, [](std::size_t) {}, speed);
  }

  static std::uint64_t outcome_hash(const serve::ServeReport& report) {
    Fingerprint f;
    for (const serve::JobOutcome& o : report.outcomes) f.add(serve::canonical_outcome_line(o));
    return f.value();
  }

  void check(std::size_t window, const serve::ServeReport& report, Tally& tally) {
    for (const serve::JobOutcome& o : report.outcomes) {
      const bool failed = o.status == "infeasible" || o.status == "compile-timeout";
      tally.record(o.workload + "@" + o.tenant, failed ? Verdict::kFailed : Verdict::kOk);
    }
    if (outcome_hash(report) != reference_[window]) {
      problem("window " + std::to_string(window) + ": outcome TSV differs from set-up's");
    }
  }

  fs::path store_dir_;
  std::vector<serve::TraceFile> windows_;
  std::optional<serve::TenantPartition> partition_;
  serve::ServeOptions options_;
  std::vector<std::uint64_t> reference_;
  /// Deterministic serving decisions over the whole trace (set-up pass).
  serve::ServeStats totals_;
  std::uint64_t p99_vcycles_{0};
};

}  // namespace

std::unique_ptr<Workload> make_serve_warm(std::string scratch_dir) {
  return std::make_unique<ServeWarm>(std::move(scratch_dir));
}

}  // namespace perfbench
