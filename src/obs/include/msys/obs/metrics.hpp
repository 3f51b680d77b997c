// Named counters and gauges for the scheduling stack.
//
// The registry is the always-on half of the observability layer (the
// TraceRecorder in trace.hpp is the opt-in half): instrumentation sites
// resolve a Counter/Gauge handle once (function-local static) and then pay
// one relaxed atomic RMW per event, cheap enough for the allocator and
// cache hot paths.  Handles are stable for the registry's lifetime, so the
// name lookup — the only locked operation — happens once per site.
//
//   * Counter — monotonic u64; only ever add()ed.  Rates and totals.
//   * Gauge   — instantaneous i64; set()/add()/update_max().  Levels and
//               peaks (queue depth, chosen RF).
//
// Accounting across a phase is done by snapshot + diff, never by reset:
// `const auto before = obs::snapshot(); work(); const auto delta =
// obs::snapshot().since(before);` — concurrent phases each see
// their own delta and nobody zeroes anyone else's counters.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace msys::obs {

/// Monotonic event count.  Thread-safe; relaxed ordering (counters are
/// statistics, not synchronisation).
class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level.  update_max() keeps a running peak in the gauge
/// itself (compare-and-swap loop, monotone upward).
class Gauge {
 public:
  void set(std::int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void add(std::int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void update_max(std::int64_t candidate) {
    std::int64_t seen = value_.load(std::memory_order_relaxed);
    while (candidate > seen &&
           !value_.compare_exchange_weak(seen, candidate, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Point-in-time copy of every metric, sorted by name (deterministic
/// iteration for tables and JSON).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;

  /// Counter deltas accumulated since `before` (names missing from
  /// `before` count from zero, zero deltas are dropped); gauges keep their
  /// current level — a level has no meaningful difference.
  [[nodiscard]] MetricsSnapshot since(const MetricsSnapshot& before) const;

  /// Value lookup that treats an absent name as zero (a counter that never
  /// fired was never registered).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  [[nodiscard]] std::int64_t gauge(std::string_view name) const;

  [[nodiscard]] bool empty() const { return counters.empty() && gauges.empty(); }
};

/// Owns every Counter/Gauge; hands out stable references by name.
class MetricsRegistry {
 public:
  /// The process-wide registry all instrumentation writes to.
  [[nodiscard]] static MetricsRegistry& global();

  /// Returns the counter/gauge registered under `name`, creating it on
  /// first use.  The reference stays valid for the registry's lifetime.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);

  /// By-name lookups served so far (every counter()/gauge() call).  Hot
  /// paths cache their handles, so this stays flat across warm work; tests
  /// diff it to prove a path performs no lookups.
  [[nodiscard]] std::uint64_t lookups() const {
    return lookups_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  std::atomic<std::uint64_t> lookups_{0};
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
};

/// Global-registry conveniences; instrumentation sites cache the result:
///   static obs::Counter& hits = obs::counter("engine.cache.hits");
[[nodiscard]] Counter& counter(std::string_view name);
[[nodiscard]] Gauge& gauge(std::string_view name);
[[nodiscard]] MetricsSnapshot snapshot();

}  // namespace msys::obs
