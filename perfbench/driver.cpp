// Benchmark driver: runs one workload from a seed and prints its metrics.
//
//   perfbench_driver --workload <cold-compile|verify|serve-warm|anneal>
//                    --seed N --seconds S --trace 0|1 [--scratch DIR]
//
// --trace 0 sets the workload up five times or more, until a second has
// passed (setup_s is the median), then runs it closed-loop for S seconds
// with tracing off and reports the end-to-end metrics.  --trace 1 sets up
// all four workloads once and gives each a traced run — the named one half
// of S, the others a sixth each — and reports the per-layer metrics;
// stage_coverage and trace_overhead_pct are the named workload's.
//
// stdout: one metadata line {"perfbench": {...}} (machine notes, output
// fingerprint, failing inputs), then, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}.  Progress goes to stderr.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace {

using namespace perfbench;

/// Set-ups of a --trace 0 run: at least kMinSetups, and more, up to
/// kMaxSetups, until kSetupSeconds have passed.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 25;
constexpr double kSetupSeconds = 1.0;
const char* const kWorkloads[] = {"cold-compile", "verify", "serve-warm", "anneal"};

std::unique_ptr<Workload> make(const std::string& name, const std::string& scratch) {
  if (name == "cold-compile") return make_cold_compile();
  if (name == "verify") return make_verify();
  if (name == "serve-warm") return make_serve_warm(scratch);
  if (name == "anneal") return make_anneal();
  return nullptr;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + '"';
}

/// Effective parallelism of two threads: the same fixed spin loop run on
/// one thread and then on two at once, 2 * t(1) / t(2).
double calibrate_parallelism() {
  auto spin = [] {
    volatile std::uint64_t x = 0;
    for (std::uint64_t i = 0; i < 40'000'000; ++i) x = x + i;
  };
  const auto t0 = Clock::now();
  spin();
  const double one = seconds_between(t0, Clock::now());
  const auto t1 = Clock::now();
  std::thread a(spin), b(spin);
  a.join();
  b.join();
  const double two = seconds_between(t1, Clock::now());
  return 2.0 * one / two;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int usage() {
  std::cerr << "usage: perfbench_driver --workload <cold-compile|verify|serve-warm|anneal> "
               "--seed N --seconds S --trace 0|1 [--scratch DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, scratch = ".";
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::stoull(value);
    } else if (key == "--seconds") {
      seconds = std::stod(value);
    } else if (key == "--trace") {
      trace = std::stoi(value);
    } else if (key == "--scratch") {
      scratch = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || std::find(std::begin(kWorkloads), std::end(kWorkloads), workload) ==
                           std::end(kWorkloads) ||
      seconds <= 0 || (trace != 0 && trace != 1)) {
    return usage();
  }

  const double parallelism = calibrate_parallelism();
  Tally tally;
  tally.known_divergent = known_divergent_inputs();
  std::vector<std::string> problems;
  Metrics metrics;
  std::ostringstream notes;  // workload-specific metadata

  if (trace == 0) {
    std::unique_ptr<Workload> wl = make(workload, scratch);
    std::vector<double> setups;
    const auto setup_start = Clock::now();
    while (setups.size() < kMinSetups ||
           (setups.size() < kMaxSetups &&
            seconds_between(setup_start, Clock::now()) < kSetupSeconds)) {
      const auto t0 = Clock::now();
      wl->setup(seed);
      setups.push_back(seconds_between(t0, Clock::now()));
    }
    std::cerr << "perfbench: " << workload << " seed " << seed << " set up in "
              << median(setups) << " s, measuring " << seconds << " s\n";
    SpeedReference speed;
    const Measurement m = wl->measure(seconds, tally, speed);
    const std::vector<double> latency = m.latency_ms(speed);
    const std::optional<double> p50 = percentile(latency, 0.5);
    const std::optional<double> tail = wl->latency_tail(latency);
    if (!p50 || !tail) {
      problems.push_back("too few samples (" + std::to_string(latency.size()) +
                         ") for latency_p50_ms and latency_tail_ms; raise --seconds");
    }
    double busy_ms = 0, raw_busy_ms = 0;
    for (const double v : latency) busy_ms += v;
    for (const double v : m.raw_ms) raw_busy_ms += v;
    metrics["setup_s"] = {median(setups), "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    metrics["ops_per_s"] = {static_cast<double>(m.ops) / (busy_ms / 1000.0), "1/s"};
    metrics["latency_p50_ms"] = {p50.value_or(0.0), "ms"};
    metrics["latency_tail_ms"] = {tail.value_or(0.0), "ms"};
    metrics["output_cycles"] = {static_cast<double>(m.output_cycles), "cycles"};
    notes << ", \"samples\": " << latency.size() << ", \"tail_percentile\": "
          << num(wl->tail_percentile()) << ", \"reference_ms_median\": "
          << num(speed.median_ms()) << ", \"reference_samples\": " << speed.samples()
          << ", \"unscaled_ops_per_s\": "
          << num(static_cast<double>(m.ops) / (raw_busy_ms / 1000.0))
          << ", \"unscaled_p50_ms\": " << num(percentile(m.raw_ms, 0.5).value_or(0.0))
          << ", \"wall_s\": " << num(m.wall_s)
          << ", \"fingerprint\": " << quote(wl->fingerprint());
    for (const std::string& p : wl->problems()) problems.push_back(workload + ": " + p);
  } else {
    notes << ", \"fingerprints\": {";
    for (const char* name : kWorkloads) {
      std::unique_ptr<Workload> wl = make(name, scratch);
      const double share = workload == name ? 0.5 : 1.0 / 6.0;
      wl->setup(seed);
      std::cerr << "perfbench: traced " << name << " for " << share * seconds << " s\n";
      const TracedSummary s = wl->trace(share * seconds, tally, metrics);
      if (workload == name) {
        metrics["stage_coverage"] = {s.stage_coverage, "ratio"};
        metrics["trace_overhead_pct"] = {s.trace_overhead_pct, "%"};
        if ((workload == "cold-compile" || workload == "verify") && s.stage_coverage < 0.90) {
          problems.push_back("stage_coverage " + num(s.stage_coverage) + " < 0.90");
        }
      }
      notes << (name == kWorkloads[0] ? "" : ", ") << quote(name) << ": "
            << quote(wl->fingerprint());
      for (const std::string& p : wl->problems()) problems.push_back(name + (": " + p));
    }
    notes << "}";
  }

  std::ostringstream meta;
  meta << "{\"perfbench\": {\"workload\": " << quote(workload) << ", \"seed\": " << seed
       << ", \"trace\": " << trace << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"effective_parallelism_2t\": " << num(parallelism)
       << ", \"infeasible\": " << tally.infeasible << ", \"known_divergent_failures\": "
       << tally.known_failures << notes.str() << ", \"failing_inputs\": {";
  bool first = true;
  for (const auto& [input, n] : tally.failing) {
    meta << (first ? "" : ", ") << quote(input) << ": " << n;
    first = false;
  }
  meta << "}, \"problems\": [";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    meta << (i == 0 ? "" : ", ") << quote(problems[i]);
    std::cerr << "perfbench: FAILED CHECK: " << problems[i] << '\n';
  }
  meta << "]}}";
  for (const auto& [input, n] : tally.failing) {
    std::cerr << "perfbench: " << n << " failed operation(s) on " << input
              << (tally.known_divergent.contains(input) ? " (known divergence)" : "") << '\n';
  }

  std::ostringstream result;
  result << "{\"correct\": " << (problems.empty() ? "true" : "false")
         << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
         << ", \"metrics\": {";
  first = true;
  for (const auto& [name, m] : metrics) {
    result << (first ? "" : ", ") << quote(name) << ": {\"value\": " << num(m.value)
           << ", \"unit\": " << quote(m.unit) << "}";
    first = false;
  }
  result << "}}";
  std::cout << meta.str() << '\n' << result.str() << std::endl;
  return 0;
}
