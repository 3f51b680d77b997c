// Chrome-trace (chrome://tracing / Perfetto "JSON object format") export
// of a TraceRecorder, optionally embedding a MetricsSnapshot.
//
// Document shape:
//   {
//     "traceEvents": [ ...metadata M events, then X/i events... ],
//     "displayTimeUnit": "ms",
//     "otherData": { "counters": {...}, "gauges": {...} }
//   }
//
// Two Chrome processes keep the two clocks apart: pid 1 is wall time
// (ts = microseconds since the recorder was created, one row per real
// thread) and pid 2 is simulated time (ts = cycles, lanes "RC array" and
// "DMA channel" matching report::render_timeline).  Perfetto renders both;
// the pid-2 timebase reads cycles wherever the UI says microseconds.
#pragma once

#include <iosfwd>
#include <string>

#include "msys/obs/json.hpp"
#include "msys/obs/metrics.hpp"
#include "msys/obs/trace.hpp"

namespace msys::obs {

/// Chrome pids for the two clocks.
inline constexpr int kWallPid = 1;
inline constexpr int kSimPid = 2;

/// Writes the full JSON document.  `stats`, when given, lands in
/// otherData so one file carries spans and counters together.
void write_chrome_trace(std::ostream& out, const TraceRecorder& recorder,
                        const MetricsSnapshot* stats = nullptr);

[[nodiscard]] std::string chrome_trace_json(const TraceRecorder& recorder,
                                            const MetricsSnapshot* stats = nullptr);

}  // namespace msys::obs
