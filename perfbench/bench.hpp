// Shared plumbing of the benchmark driver: clocks, seeded input
// derivation, output fingerprints, span aggregation and the Workload
// interface the four workloads implement.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "msys/model/schedule.hpp"
#include "msys/workloads/random.hpp"
#include "msys/obs/metrics.hpp"
#include "msys/obs/trace.hpp"
#include "stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Input seed number `i` of a run seeded with `seed` (splitmix64, kept
/// below 2^40 so input names stay short).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i);

/// `count` random-app generator seeds drawn by `seed` from [lo, hi) minus
/// `exclude`, stratified by size: the range is ordered by kernels x
/// iterations of the app each seed generates and cut into `count` equal
/// strata, and one seed is drawn from each.  Every run seed then gets a
/// corpus of the same size profile, so seeds differ in their inputs but
/// not in how much work those inputs are.
[[nodiscard]] std::vector<std::uint64_t> draw_seeds(
    std::uint64_t seed, const msys::workloads::RandomSpec& spec, std::uint64_t lo,
    std::uint64_t hi, const std::set<std::uint64_t>& exclude, std::size_t count);

/// Kernel-name partition of a schedule (the form appdsl::write takes).
[[nodiscard]] std::vector<std::vector<std::string>> partition_names(
    const msys::model::KernelSchedule& sched);

/// Running FNV-1a hash of a workload's outputs.
class Fingerprint {
 public:
  void add(std::string_view bytes);
  void add(std::uint64_t value);
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

/// Per-name totals of recorded wall-clock spans.  Self time is a span's
/// duration minus its direct children on the same thread.
struct SpanStat {
  std::uint64_t count{0};
  double total_us{0.0};
  double self_us{0.0};
  [[nodiscard]] double mean_us() const { return count == 0 ? 0.0 : total_us / count; }
  [[nodiscard]] double self_mean_us() const { return count == 0 ? 0.0 : self_us / count; }
};

class SpanCollector {
 public:
  /// Runs `fn` with a fresh recorder installed, then folds its spans into
  /// the totals and drops the events, so memory stays bounded however
  /// long the traced run is.
  template <class Fn>
  void record(Fn&& fn) {
    msys::obs::TraceRecorder recorder;
    {
      msys::obs::TraceSession session(recorder);
      fn();
    }
    absorb(recorder.events());
  }
  [[nodiscard]] SpanStat operator[](const std::string& name) const;

 private:
  void absorb(const std::vector<msys::obs::TraceEvent>& events);
  std::map<std::string, SpanStat> stats_;
};

/// One reported number with its unit.
struct Metric {
  double value{0.0};
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Counter delta over a phase, read by name.
class CounterDelta {
 public:
  CounterDelta() : before_(msys::obs::snapshot()) {}
  void stop() { delta_ = msys::obs::snapshot().since(before_); }
  [[nodiscard]] double operator[](std::string_view name) const {
    return static_cast<double>(delta_.counter(name));
  }

 private:
  msys::obs::MetricsSnapshot before_;
  msys::obs::MetricsSnapshot delta_;
};

[[nodiscard]] inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Machine-speed reference.  A shared machine changes speed by tens of
/// percent from one run to the next (shared cores, frequency), more than
/// the changes the benchmark must resolve.  A fixed kernel owned by
/// the benchmark (pointer chasing, integer mixing, small allocations, a
/// std::map) is timed every kSampleInterval during a measurement, and the
/// run's times are multiplied by kReferenceMs / the kernel's median time:
/// they read as if the kernel had taken kReferenceMs.
class SpeedReference {
 public:
  static constexpr double kReferenceMs = 3.0;
  static constexpr std::chrono::milliseconds kSampleInterval{50};

  SpeedReference();
  /// Runs the kernel when kSampleInterval has passed since its last run.
  void sample_if_due();
  /// kReferenceMs / the kernel's median time (1 before any sample).
  [[nodiscard]] double scale() const;
  [[nodiscard]] double median_ms() const { return median(ms_); }
  [[nodiscard]] std::size_t samples() const { return ms_.size(); }

 private:
  void sample();
  std::vector<std::uint32_t> next_;  // one-cycle permutation to chase
  std::vector<double> ms_;           // kernel times
  Clock::time_point last_{};
  std::uint64_t sink_{0};
};

/// Per-operation times of one untraced, timed run.
struct Measurement {
  void add(Clock::time_point start, Clock::time_point end, std::uint64_t op_count = 1) {
    raw_ms.push_back(std::chrono::duration<double, std::milli>(end - start).count());
    ops += op_count;
  }
  /// Latencies rescaled to reference speed.
  [[nodiscard]] std::vector<double> latency_ms(const SpeedReference& speed) const;

  std::vector<double> raw_ms;
  /// Operations completed: one per sample, except that serve-warm counts
  /// the arrivals each restart served.
  std::uint64_t ops{0};
  double wall_s{0.0};
  /// Deterministic quality guard (see README: output_cycles).
  std::uint64_t output_cycles{0};
};

/// Calls fn(i) for the n inputs pass after pass — one full pass at least,
/// then until `seconds` have passed — with before_pass(p) ahead of pass p
/// and, given `speed`, reference samples between operations.  Returns the
/// elapsed seconds.
template <class Fn, class BeforePass>
double run_passes(double seconds, std::size_t n, Fn&& fn, BeforePass&& before_pass,
                  SpeedReference* speed = nullptr) {
  const auto start = Clock::now();
  for (std::size_t pass = 0;; ++pass) {
    before_pass(pass);
    for (std::size_t i = 0; i < n; ++i) {
      const double elapsed = seconds_between(start, Clock::now());
      if (pass > 0 && elapsed >= seconds) return elapsed;
      if (speed != nullptr) speed->sample_if_due();
      fn(i);
    }
  }
}

/// What a traced run adds beyond the per-layer metrics.
struct TracedSummary {
  /// Sum of the stage times / the per-operation end-to-end time.
  double stage_coverage{0.0};
  /// 100 * (traced / untraced per-operation time - 1).
  double trace_overhead_pct{0.0};
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  [[nodiscard]] virtual const char* name() const = 0;
  /// Percentile reported as latency_tail_ms.
  [[nodiscard]] virtual double tail_percentile() const = 0;
  /// latency_tail_ms of a timed run, from its rescaled latencies in the
  /// order measure() took them: by default their nearest-rank
  /// tail_percentile(), nullopt when the run is too short for it.
  [[nodiscard]] virtual std::optional<double> latency_tail(
      const std::vector<double>& latency_ms) const {
    return percentile(latency_ms, tail_percentile());
  }
  /// Builds every input from `seed`, replacing any earlier set-up.
  virtual void setup(std::uint64_t seed) = 0;
  /// Closed-loop timed run, tracing off, sampling `speed` between
  /// operations (see run_passes).
  [[nodiscard]] virtual Measurement measure(double seconds, Tally& tally,
                                            SpeedReference& speed) = 0;
  /// Traced run: fills this workload's per-layer metrics.
  [[nodiscard]] virtual TracedSummary trace(double seconds, Tally& tally,
                                            Metrics& layers) = 0;
  /// Fingerprint of this seed's outputs (identical for a given seed).
  [[nodiscard]] std::string fingerprint() const { return fingerprint_.hex(); }
  /// Output checks that failed (empty when the outputs are correct).
  [[nodiscard]] const std::vector<std::string>& problems() const { return problems_; }

 protected:
  void problem(std::string what) {
    if (problems_.size() < 20) problems_.push_back(std::move(what));
  }
  Fingerprint fingerprint_;

 private:
  std::vector<std::string> problems_;
};

[[nodiscard]] std::unique_ptr<Workload> make_cold_compile();
[[nodiscard]] std::unique_ptr<Workload> make_verify();
[[nodiscard]] std::unique_ptr<Workload> make_serve_warm(std::string scratch_dir);
[[nodiscard]] std::unique_ptr<Workload> make_anneal();

/// Verify corpus members whose failures are a known, still-open bug.
[[nodiscard]] std::set<std::string> known_divergent_inputs();

}  // namespace perfbench
