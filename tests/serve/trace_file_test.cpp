// Arrival-trace codec and generator: canonical round-trip, determinism
// from the seed, coded parse diagnostics, and interarrival sanity.
#include <gtest/gtest.h>

#include <algorithm>

#include "msys/serve/trace_file.hpp"

namespace msys::serve {
namespace {

bool has_code(const Diagnostics& diags, std::string_view code) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

TraceGenSpec small_spec() {
  TraceGenSpec spec;
  spec.seed = 11;
  spec.jobs = 32;
  spec.streams = 4;
  spec.mean_gap_cycles = 100000;
  spec.deadline_cycles = 5000000;
  spec.priorities = 3;
  spec.workloads = 5;
  return spec;
}

TEST(TraceFileTest, WriteParseRoundTripIsByteIdentical) {
  const TraceFile trace = generate_trace(small_spec());
  const std::string text = write_trace(trace);
  ParseTraceResult parsed = parse_trace(text, "roundtrip.trace");
  ASSERT_TRUE(parsed.ok()) << render(parsed.diagnostics);
  EXPECT_EQ(*parsed.trace, trace);
  EXPECT_EQ(write_trace(*parsed.trace), text);
}

TEST(TraceFileTest, ParserAcceptsCommentsAndBlankLines) {
  ParseTraceResult parsed = parse_trace(
      "# a comment\n"
      "trace v1 seed=9\n"
      "\n"
      "job 100 0 random:1000 0 0\n"
      "# trailing comment\n"
      "job 200 1 E1 50000 2\n");
  ASSERT_TRUE(parsed.ok()) << render(parsed.diagnostics);
  EXPECT_EQ(parsed.trace->seed, 9u);
  ASSERT_EQ(parsed.trace->events.size(), 2u);
  EXPECT_EQ(parsed.trace->events[1].workload, "E1");
  EXPECT_EQ(parsed.trace->events[1].deadline_cycles, 50000u);
  EXPECT_EQ(parsed.trace->events[1].priority, 2);
}

TEST(TraceFileTest, GeneratorIsDeterministicFromItsSpec) {
  const TraceFile a = generate_trace(small_spec());
  const TraceFile b = generate_trace(small_spec());
  EXPECT_EQ(a, b);

  TraceGenSpec other = small_spec();
  other.seed = 12;
  EXPECT_NE(generate_trace(other), a);
}

TEST(TraceFileTest, GeneratedEventsAreSortedAndInSpec) {
  const TraceGenSpec spec = small_spec();
  const TraceFile trace = generate_trace(spec);
  ASSERT_EQ(trace.events.size(), spec.jobs);
  for (std::size_t i = 1; i < trace.events.size(); ++i) {
    EXPECT_LE(trace.events[i - 1].at_cycles, trace.events[i].at_cycles);
  }
  for (const TraceEvent& e : trace.events) {
    EXPECT_LT(e.stream, spec.streams);
    EXPECT_GE(e.priority, 0);
    EXPECT_LT(e.priority, static_cast<int>(spec.priorities));
    EXPECT_TRUE(e.workload.starts_with("random:"));
    // Deadlines are the spec value jittered +/-25%.
    EXPECT_GE(e.deadline_cycles, spec.deadline_cycles * 75 / 100);
    EXPECT_LE(e.deadline_cycles, spec.deadline_cycles * 125 / 100);
  }
}

TEST(TraceFileTest, MeanInterarrivalTracksTheSpec) {
  TraceGenSpec spec = small_spec();
  spec.jobs = 512;
  spec.streams = 1;
  spec.deadline_cycles = 0;
  const TraceFile trace = generate_trace(spec);
  const std::uint64_t span = trace.events.back().at_cycles;
  const std::uint64_t mean = span / (spec.jobs - 1);
  // Integer exponential sampling: loose 2x band around the spec mean.
  EXPECT_GT(mean, spec.mean_gap_cycles / 2);
  EXPECT_LT(mean, spec.mean_gap_cycles * 2);
}

TEST(TraceFileTest, MissingHeaderIsCoded) {
  ParseTraceResult parsed = parse_trace("job 0 0 E1 0 0\n");
  EXPECT_FALSE(parsed.ok());
  EXPECT_TRUE(has_code(parsed.diagnostics, "trace.header.missing"));
}

TEST(TraceFileTest, MalformedHeaderIsCoded) {
  ParseTraceResult parsed = parse_trace("trace v1 seed=banana\n");
  EXPECT_FALSE(parsed.ok());
  EXPECT_TRUE(has_code(parsed.diagnostics, "trace.header.malformed"));
}

TEST(TraceFileTest, UnknownVersionIsCoded) {
  ParseTraceResult parsed = parse_trace("trace v2 seed=1\n");
  EXPECT_FALSE(parsed.ok());
  EXPECT_TRUE(has_code(parsed.diagnostics, "trace.header.missing"));
}

TEST(TraceFileTest, MalformedLinesReportFileAndLine) {
  ParseTraceResult parsed = parse_trace(
      "trace v1 seed=1\n"
      "job 100 0 E1 0\n",  // five fields required, four given
      "bad.trace");
  EXPECT_FALSE(parsed.ok());
  ASSERT_TRUE(has_code(parsed.diagnostics, "trace.line.malformed"));
  const auto it =
      std::find_if(parsed.diagnostics.begin(), parsed.diagnostics.end(),
                   [](const Diagnostic& d) { return d.code == "trace.line.malformed"; });
  EXPECT_EQ(it->loc.file, "bad.trace");
  EXPECT_EQ(it->loc.line, 2);
}

TEST(TraceFileTest, UnsortedEventsAreCoded) {
  ParseTraceResult parsed = parse_trace(
      "trace v1 seed=1\n"
      "job 200 0 E1 0 0\n"
      "job 100 0 E1 0 0\n");
  EXPECT_FALSE(parsed.ok());
  EXPECT_TRUE(has_code(parsed.diagnostics, "trace.event.unsorted"));
}

TEST(TraceFileTest, NonNumericFieldIsCoded) {
  ParseTraceResult parsed = parse_trace(
      "trace v1 seed=1\n"
      "job soon 0 E1 0 0\n");
  EXPECT_FALSE(parsed.ok());
  EXPECT_TRUE(has_code(parsed.diagnostics, "trace.line.malformed"));
}

TEST(TraceFileTest, ExtraFieldsAreMalformedNotSilentlyDropped) {
  ParseTraceResult parsed = parse_trace(
      "trace v1 seed=1\n"
      "job 100 0 E1 0 0 surprise\n");
  EXPECT_FALSE(parsed.ok());
  EXPECT_TRUE(has_code(parsed.diagnostics, "trace.line.malformed"));
}

TEST(TraceFileTest, EqualTimestampsAreSortedNotUnsorted) {
  // Same-instant arrivals are legal (the serve layer breaks ties by trace
  // order) — only a strict decrease is "unsorted".
  ParseTraceResult parsed = parse_trace(
      "trace v1 seed=1\n"
      "job 100 0 E1 0 0\n"
      "job 100 1 E1 0 0\n");
  ASSERT_TRUE(parsed.ok()) << render(parsed.diagnostics);
  EXPECT_EQ(parsed.trace->events.size(), 2u);
}

TEST(TraceFileTest, ZeroDeadlineZeroPriorityTracesRoundTripThroughTheParser) {
  // Every event with deadline 0 (none) and priority 0: the written text
  // must parse back to the same events.
  TraceGenSpec spec = small_spec();
  spec.jobs = 5;
  TraceFile plain = generate_trace(spec);
  for (TraceEvent& e : plain.events) {
    e.deadline_cycles = 0;
    e.priority = 0;
  }
  ParseTraceResult parsed = parse_trace(write_trace(plain), "plain.trace");
  ASSERT_TRUE(parsed.ok()) << render(parsed.diagnostics);
  EXPECT_EQ(*parsed.trace, plain);
}

}  // namespace
}  // namespace msys::serve
