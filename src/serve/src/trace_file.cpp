#include "msys/serve/trace_file.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "msys/common/error.hpp"
#include "msys/common/rng.hpp"
#include "msys/common/strfmt.hpp"

namespace msys::serve {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

std::vector<std::string_view> split_fields(std::string_view s) {
  std::vector<std::string_view> fields;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < s.size() && s[j] != ' ' && s[j] != '\t') ++j;
    if (j > i) fields.push_back(s.substr(i, j - i));
    i = j;
  }
  return fields;
}

/// Integer exponential sample with the given mean: for u uniform in
/// (0, 2^64), -log2(u / 2^64) ~ Exp(ln 2) decomposes into the count of
/// leading zeros (the geometric part) plus a fractional correction that a
/// linear mantissa approximation covers to ~1% — plenty for "Poisson-like"
/// arrivals, and exactly reproducible everywhere since no libm is
/// involved.  Q16 fixed point throughout; 45426/65536 ~= ln 2.
std::uint64_t exponential_gap(Rng& rng, std::uint64_t mean) {
  const std::uint64_t u = rng.next_u64() | 1;  // avoid -log(0)
  const int z = std::countl_zero(u);
  const std::uint64_t frac16 = z >= 63 ? 0 : (u << (z + 1)) >> 48;
  const std::uint64_t neg_log2_q16 =
      (static_cast<std::uint64_t>(z + 1) << 16) - frac16;
  return ((mean * neg_log2_q16) >> 16) * 45426 >> 16;
}

}  // namespace

ParseTraceResult parse_trace(std::string_view text, std::string file) {
  ParseTraceResult out;
  TraceFile trace;
  bool saw_header = false;
  int line_no = 0;
  std::uint64_t prev_at = 0;

  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string_view raw = text.substr(pos, nl == std::string_view::npos ? text.size() - pos
                                                                         : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    std::string_view line = trim(raw);
    if (line.empty() || line.front() == '#') continue;
    const SourceLoc loc{file, line_no};

    const std::vector<std::string_view> f = split_fields(line);
    if (!saw_header) {
      if (f.size() != 3 || f[0] != "trace" || f[1] != "v1" ||
          !f[2].starts_with("seed=")) {
        out.diagnostics.push_back(make_error(
            "trace.header.missing", "expected 'trace v1 seed=<n>' as the first line", loc));
        return out;
      }
      std::uint64_t seed = 0;
      if (!parse_int(f[2].substr(5), seed)) {
        out.diagnostics.push_back(
            make_error("trace.header.malformed", "unreadable seed value", loc));
        return out;
      }
      trace.seed = seed;
      saw_header = true;
      continue;
    }

    if (f[0] != "job" || f.size() != 6) {
      out.diagnostics.push_back(make_error(
          "trace.line.malformed",
          "expected 'job <at> <stream> <workload> <deadline> <priority>'", loc));
      continue;
    }
    TraceEvent e;
    e.workload = std::string(f[3]);
    if (!parse_int(f[1], e.at_cycles) || !parse_int(f[2], e.stream) ||
        !parse_int(f[4], e.deadline_cycles) || !parse_int(f[5], e.priority)) {
      out.diagnostics.push_back(
          make_error("trace.line.malformed", "unreadable numeric field", loc));
      continue;
    }
    if (e.at_cycles < prev_at) {
      out.diagnostics.push_back(make_error(
          "trace.event.unsorted", "arrivals must be non-decreasing in at_cycles", loc));
      continue;
    }
    prev_at = e.at_cycles;
    trace.events.push_back(std::move(e));
  }

  if (!saw_header) {
    out.diagnostics.push_back(
        make_error("trace.header.missing", "empty input; expected 'trace v1 seed=<n>'",
                   SourceLoc{std::move(file), 0}));
    return out;
  }
  if (has_errors(out.diagnostics)) return out;
  out.trace = std::move(trace);
  return out;
}

std::string write_trace(const TraceFile& trace) {
  std::ostringstream os;
  os << "trace v1 seed=" << trace.seed << "\n";
  for (const TraceEvent& e : trace.events) {
    os << "job " << e.at_cycles << " " << e.stream << " " << e.workload << " "
       << e.deadline_cycles << " " << e.priority << "\n";
  }
  return os.str();
}

workloads::RandomSpec serve_random_spec(std::uint64_t seed) {
  workloads::RandomSpec spec;
  spec.seed = seed;
  spec.min_kernels = 5;
  spec.max_kernels = 10;
  spec.min_iterations = 4;
  spec.max_iterations = 24;
  spec.reuse_percent = 40;
  spec.shared_inputs = 2;
  // Serving jobs must stay schedulable on a *quarter* machine (4-tenant
  // even partition: 512-word FB sets), so cap object sizes and cluster
  // width well below the generator's stress defaults.
  spec.max_size = 48;
  spec.max_cluster_size = 2;
  return spec;
}

TraceFile generate_trace(const TraceGenSpec& spec) {
  MSYS_REQUIRE(spec.streams >= 1, "generate_trace needs at least one stream");
  MSYS_REQUIRE(spec.priorities >= 1, "generate_trace needs at least one priority level");
  MSYS_REQUIRE(spec.workloads >= 1, "generate_trace needs at least one workload");

  TraceFile trace;
  trace.seed = spec.seed;
  const Rng root(spec.seed);
  for (std::uint32_t s = 0; s < spec.streams; ++s) {
    Rng rng = root.split(s);
    const std::uint32_t count =
        spec.jobs / spec.streams + (s < spec.jobs % spec.streams ? 1 : 0);
    std::uint64_t at = 0;
    for (std::uint32_t k = 0; k < count; ++k) {
      at += exponential_gap(rng, spec.mean_gap_cycles);
      TraceEvent e;
      e.at_cycles = at;
      e.stream = s;
      e.workload = "random:" + std::to_string(1000 + rng.uniform(0, spec.workloads - 1));
      if (spec.deadline_cycles > 0) {
        e.deadline_cycles = spec.deadline_cycles * rng.uniform(75, 125) / 100;
      }
      e.priority = static_cast<int>(rng.uniform(0, spec.priorities - 1));
      trace.events.push_back(std::move(e));
    }
  }
  std::stable_sort(trace.events.begin(), trace.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.at_cycles != b.at_cycles) return a.at_cycles < b.at_cycles;
                     return a.stream < b.stream;
                   });
  return trace;
}

}  // namespace msys::serve
