#include "msys/obs/chrome_trace.hpp"

#include <algorithm>
#include <ostream>
#include <set>
#include <sstream>

namespace msys::obs {

namespace {

/// Events are built as JsonValues and serialised with write_json: the
/// exporter and the round-trip tests then share one definition of valid
/// output by construction.
JsonValue metadata_event(int pid, int tid, const std::string& what,
                         const std::string& name) {
  JsonObject args;
  args.emplace("name", JsonValue(name));
  JsonObject event;
  event.emplace("name", JsonValue(std::string(what)));
  event.emplace("ph", JsonValue(std::string("M")));
  event.emplace("pid", JsonValue(static_cast<double>(pid)));
  event.emplace("tid", JsonValue(static_cast<double>(tid)));
  event.emplace("args", JsonValue(std::move(args)));
  return JsonValue(std::move(event));
}

JsonValue trace_event(const TraceEvent& e) {
  JsonObject event;
  event.emplace("name", JsonValue(e.name));
  event.emplace("cat", JsonValue(e.category));
  event.emplace("ph", JsonValue(std::string(1, e.phase)));
  event.emplace("pid",
                JsonValue(static_cast<double>(e.sim_time ? kSimPid : kWallPid)));
  event.emplace("tid", JsonValue(static_cast<double>(e.tid)));
  if (e.sim_time) {
    // Simulated clock: one cycle maps to one display microsecond.
    event.emplace("ts", JsonValue(static_cast<double>(e.ts)));
    if (e.phase == 'X') event.emplace("dur", JsonValue(static_cast<double>(e.dur)));
  } else {
    event.emplace("ts", JsonValue(static_cast<double>(e.ts) / 1000.0));
    if (e.phase == 'X') event.emplace("dur", JsonValue(static_cast<double>(e.dur) / 1000.0));
  }
  if (e.phase == 'i') event.emplace("s", JsonValue(std::string("t")));
  if (!e.args.empty()) {
    JsonObject args;
    for (const TraceArg& a : e.args) {
      if (a.numeric) {
        double n = 0.0;
        try {
          n = std::stod(a.value);
        } catch (...) {
          args.insert_or_assign(a.key, JsonValue(a.value));
          continue;
        }
        args.insert_or_assign(a.key, JsonValue(n));
      } else {
        args.insert_or_assign(a.key, JsonValue(a.value));
      }
    }
    event.emplace("args", JsonValue(std::move(args)));
  }
  return JsonValue(std::move(event));
}

}  // namespace

void write_chrome_trace(std::ostream& out, const TraceRecorder& recorder,
                        const MetricsSnapshot* stats) {
  const std::vector<TraceEvent> events = recorder.events();

  JsonArray trace_events;
  trace_events.push_back(metadata_event(kWallPid, 0, "process_name", "msys (wall time)"));
  trace_events.push_back(
      metadata_event(kSimPid, 0, "process_name", "M1 simulator (cycles)"));
  trace_events.push_back(metadata_event(kSimPid, static_cast<int>(SimLane::kRc),
                                        "thread_name", "RC array"));
  trace_events.push_back(metadata_event(kSimPid, static_cast<int>(SimLane::kDma),
                                        "thread_name", "DMA channel"));
  std::set<std::uint32_t> wall_tids;
  for (const TraceEvent& e : events) {
    if (!e.sim_time) wall_tids.insert(e.tid);
  }
  for (const std::uint32_t tid : wall_tids) {
    trace_events.push_back(metadata_event(kWallPid, static_cast<int>(tid), "thread_name",
                                          "worker-" + std::to_string(tid)));
  }
  for (const TraceEvent& e : events) trace_events.push_back(trace_event(e));

  JsonObject root;
  root.emplace("traceEvents", JsonValue(std::move(trace_events)));
  root.emplace("displayTimeUnit", JsonValue(std::string("ms")));
  if (stats != nullptr && !stats->empty()) {
    JsonObject counters;
    for (const auto& [name, value] : stats->counters) {
      counters.emplace(name, JsonValue(static_cast<double>(value)));
    }
    JsonObject gauges;
    for (const auto& [name, value] : stats->gauges) {
      gauges.emplace(name, JsonValue(static_cast<double>(value)));
    }
    JsonObject other;
    other.emplace("counters", JsonValue(std::move(counters)));
    other.emplace("gauges", JsonValue(std::move(gauges)));
    root.emplace("otherData", JsonValue(std::move(other)));
  }
  out << write_json(JsonValue(std::move(root))) << '\n';
}

std::string chrome_trace_json(const TraceRecorder& recorder, const MetricsSnapshot* stats) {
  std::ostringstream out;
  write_chrome_trace(out, recorder, stats);
  return out.str();
}

}  // namespace msys::obs
