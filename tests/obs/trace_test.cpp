// TraceRecorder + Chrome-trace exporter: gating, span/instant recording,
// the two-clock export shape, schema validation, and the golden-file
// round-trip (export -> parse -> re-serialise -> parse == same document).
#include "msys/obs/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "msys/obs/chrome_trace.hpp"
#include "msys/obs/json.hpp"
#include "msys/obs/metrics.hpp"
#include "testing/json_reader.hpp"

namespace msys::obs {
namespace {

using testing::JsonParseResult;
using testing::parse_json;
using testing::validate_chrome_trace;

/// Restores the no-recorder default even when a test fails mid-way.
struct ActiveGuard {
  ~ActiveGuard() { TraceRecorder::set_active(nullptr); }
};

TEST(Trace, DisabledByDefaultAndSpansAreNoOps) {
  ASSERT_EQ(TraceRecorder::active(), nullptr);
  MSYS_TRACE_SPAN(span, "test.span", "test");
  EXPECT_FALSE(span.active());
  MSYS_TRACE_INSTANT("test.instant", "test");  // must not crash
}

TEST(Trace, SessionInstallsAndRemovesTheRecorder) {
  ActiveGuard guard;
  TraceRecorder recorder;
  {
    TraceSession session(recorder);
    EXPECT_EQ(TraceRecorder::active(), &recorder);
    MSYS_TRACE_SPAN(span, "test.scoped", "test");
    EXPECT_TRUE(span.active());
  }
  EXPECT_EQ(TraceRecorder::active(), nullptr);
  EXPECT_EQ(recorder.event_count(), 1u);
}

TEST(Trace, SpanRecordsNameCategoryAndArgs) {
  ActiveGuard guard;
  TraceRecorder recorder;
  {
    TraceSession session(recorder);
    MSYS_TRACE_SPAN(span, "test.work", "unit");
    if (span.active()) {
      span.add_arg(arg("k", std::string("v")));
      span.add_arg(arg("n", std::uint64_t{7}));
    }
  }
  const std::vector<TraceEvent> events = recorder.events();
  ASSERT_EQ(events.size(), 1u);
  const TraceEvent& e = events[0];
  EXPECT_EQ(e.name, "test.work");
  EXPECT_EQ(e.category, "unit");
  EXPECT_EQ(e.phase, 'X');
  EXPECT_FALSE(e.sim_time);
  ASSERT_EQ(e.args.size(), 2u);
  EXPECT_EQ(e.args[0].key, "k");
  EXPECT_FALSE(e.args[0].numeric);
  EXPECT_EQ(e.args[1].value, "7");
  EXPECT_TRUE(e.args[1].numeric);
}

TEST(Trace, InstantAndSimEventsCarryTheirClocks) {
  ActiveGuard guard;
  TraceRecorder recorder;
  {
    TraceSession session(recorder);
    MSYS_TRACE_INSTANT("test.mark", "unit", arg("i", std::uint64_t{1}));
    recorder.sim_complete("EXEC k0", "sim", 100, 50, SimLane::kRc);
    recorder.sim_complete("LOAD d0", "sim", 0, 30, SimLane::kDma);
  }
  const std::vector<TraceEvent> events = recorder.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_FALSE(events[0].sim_time);
  EXPECT_TRUE(events[1].sim_time);
  EXPECT_EQ(events[1].ts, 100u);
  EXPECT_EQ(events[1].dur, 50u);
  EXPECT_EQ(events[1].tid, static_cast<std::uint32_t>(SimLane::kRc));
  EXPECT_EQ(events[2].tid, static_cast<std::uint32_t>(SimLane::kDma));
}

TEST(Trace, ThreadsGetDenseDistinctWallTids) {
  ActiveGuard guard;
  TraceRecorder recorder;
  {
    TraceSession session(recorder);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([] { MSYS_TRACE_SPAN(span, "test.thread", "unit"); });
    }
    for (std::thread& t : threads) t.join();
  }
  const std::vector<TraceEvent> events = recorder.events();
  ASSERT_EQ(events.size(), 4u);
  std::vector<bool> seen(5, false);
  for (const TraceEvent& e : events) {
    ASSERT_GE(e.tid, 1u);
    ASSERT_LE(e.tid, 4u);
    EXPECT_FALSE(seen[e.tid]) << "tid reused across threads";
    seen[e.tid] = true;
  }
}

TEST(Trace, ConcurrentRecordingLosesNothing) {
  ActiveGuard guard;
  TraceRecorder recorder;
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  {
    TraceSession session(recorder);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        for (int i = 0; i < kSpansPerThread; ++i) {
          MSYS_TRACE_SPAN(span, "test.hammer", "unit");
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_EQ(recorder.event_count(),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
}

/// A small two-clock recorder for the exporter tests (filled once; the
/// recorder is neither copyable nor movable, so build it in place).
TraceRecorder& example_recorder() {
  static TraceRecorder recorder;
  static const bool filled = [] {
    TraceSession session(recorder);
    {
      MSYS_TRACE_SPAN(span, "compile", "engine");
      if (span.active()) span.add_arg(arg("cycles", std::uint64_t{1234}));
    }
    MSYS_TRACE_INSTANT("decision", "dsched", arg("why", std::string("fits")));
    recorder.sim_complete("EXEC dct", "sim", 0, 120, SimLane::kRc);
    recorder.sim_complete("LOAD frame", "sim", 0, 40, SimLane::kDma);
    return true;
  }();
  (void)filled;
  return recorder;
}

TEST(ChromeTrace, ExportValidatesAgainstTheSchema) {
  MetricsSnapshot stats;
  stats.counters["test.count"] = 3;
  stats.gauges["test.level"] = -2;
  const std::string json = chrome_trace_json(example_recorder(), &stats);
  JsonParseResult parsed = parse_json(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const Diagnostics violations = validate_chrome_trace(*parsed.value);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front().message);
}

TEST(ChromeTrace, TwoClocksLandOnTheirPids) {
  const std::string json = chrome_trace_json(example_recorder());
  JsonParseResult parsed = parse_json(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const JsonValue* events = parsed.value->find("traceEvents");
  ASSERT_NE(events, nullptr);
  int wall = 0, sim = 0, metadata = 0;
  for (const JsonValue& e : events->as_array()) {
    const std::string& ph = e.find("ph")->as_string();
    if (ph == "M") {
      ++metadata;
      continue;
    }
    const int pid = static_cast<int>(e.find("pid")->as_number());
    (pid == kWallPid ? wall : sim) += 1;
    if (pid == kSimPid) {
      // Sim events keep raw cycle timestamps and the fixed lane tids.
      const int tid = static_cast<int>(e.find("tid")->as_number());
      EXPECT_TRUE(tid == 1 || tid == 2);
    }
  }
  EXPECT_EQ(wall, 2);  // compile span + decision instant
  EXPECT_EQ(sim, 2);   // EXEC + LOAD
  EXPECT_GE(metadata, 3);  // two process names + at least one thread name
}

TEST(ChromeTrace, CountersLandInOtherData) {
  MetricsSnapshot stats;
  stats.counters["engine.cache.hits"] = 9;
  const std::string json = chrome_trace_json(example_recorder(), &stats);
  JsonParseResult parsed = parse_json(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const JsonValue* other = parsed.value->find("otherData");
  ASSERT_NE(other, nullptr);
  const JsonValue* counters = other->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->find("engine.cache.hits")->as_number(), 9.0);
}

TEST(ChromeTrace, GoldenRoundTripIsStable) {
  // Golden contract: the exported document survives parse -> re-serialise
  // -> re-parse without structural drift.  This pins the exporter's schema
  // without a brittle byte-for-byte golden file (timestamps vary run to
  // run; structure must not).
  MetricsSnapshot stats;
  stats.counters["test.count"] = 3;
  const std::string json = chrome_trace_json(example_recorder(), &stats);
  JsonParseResult first = parse_json(json);
  ASSERT_TRUE(first.ok()) << first.error;
  JsonParseResult second = parse_json(write_json(*first.value));
  ASSERT_TRUE(second.ok()) << second.error;
  EXPECT_TRUE(*first.value == *second.value);
  // And the re-serialised document still passes the schema check.
  EXPECT_TRUE(validate_chrome_trace(*second.value).empty());
}

TEST(ChromeTrace, ValidatorRejectsBrokenDocuments) {
  const auto violations_of = [](std::string_view text) {
    JsonParseResult parsed = parse_json(text);
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    return validate_chrome_trace(*parsed.value);
  };
  EXPECT_FALSE(violations_of("[]").empty());                    // root not object
  EXPECT_FALSE(violations_of("{}").empty());                    // no traceEvents
  EXPECT_FALSE(violations_of(R"({"traceEvents": 5})").empty()); // wrong kind
  // Event missing required members.
  EXPECT_FALSE(violations_of(R"({"traceEvents": [{"ph": "X"}]})").empty());
  // X event without dur.
  EXPECT_FALSE(violations_of(
                   R"({"traceEvents": [{"name":"a","ph":"X","pid":1,"tid":1,"ts":0}]})")
                   .empty());
  // Unknown pid.
  EXPECT_FALSE(
      violations_of(
          R"({"traceEvents": [{"name":"a","ph":"i","pid":9,"tid":1,"ts":0}]})")
          .empty());
  // Unknown phase.
  EXPECT_FALSE(
      violations_of(
          R"({"traceEvents": [{"name":"a","ph":"B","pid":1,"tid":1,"ts":0}]})")
          .empty());
}

}  // namespace
}  // namespace msys::obs
