#include "msys/obs/metrics.hpp"

namespace msys::obs {

MetricsSnapshot MetricsSnapshot::since(const MetricsSnapshot& before) const {
  MetricsSnapshot delta;
  for (const auto& [name, value] : counters) {
    const auto it = before.counters.find(name);
    const std::uint64_t base = it == before.counters.end() ? 0 : it->second;
    // Counters that did not move are noise in a per-phase report: drop
    // them so `msysc --stats` and the bench show only what this run did.
    if (value != base) delta.counters.emplace(name, value - base);
  }
  delta.gauges = gauges;
  return delta;
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  const auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

std::int64_t MetricsSnapshot::gauge(std::string_view name) const {
  const auto it = gauges.find(std::string(name));
  return it == gauges.end() ? 0 : it->second;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) snap.counters.emplace(name, counter->value());
  for (const auto& [name, gauge] : gauges_) snap.gauges.emplace(name, gauge->value());
  return snap;
}

Counter& counter(std::string_view name) { return MetricsRegistry::global().counter(name); }
Gauge& gauge(std::string_view name) { return MetricsRegistry::global().gauge(name); }
MetricsSnapshot snapshot() { return MetricsRegistry::global().snapshot(); }

}  // namespace msys::obs
