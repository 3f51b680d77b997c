// Text format for describing applications, kernel schedules and machine
// configurations — the "application code written in terms of kernels"
// entering the compilation framework (paper Fig. 2).
//
// Line-oriented; '#' starts a comment; blank lines ignored.  Declarations
// must appear producer-first (an object is referenced only after the line
// that declares it):
//
//   app <name> iterations <count>
//   input <data-name> <size-words>
//   kernel <name> ctx <words> cycles <cycles> in <data>... [out <spec>...]
//   cluster <kernel>...
//   fbset <words>          # optional machine overrides
//   cm <words>
//   ctxcost <cycles-per-context-word>
//
// An `out` spec is <name>:<size>[:final]; `final` marks a result that must
// be written back to external memory.
//
// Example:
//
//   app demo iterations 8
//   input a 64
//   kernel k1 ctx 32 cycles 100 in a out t:32
//   kernel k2 ctx 32 cycles 100 in t out r:16:final
//   cluster k1
//   cluster k2
//   fbset 1024
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "msys/arch/m1.hpp"
#include "msys/common/diagnostic.hpp"
#include "msys/model/schedule.hpp"

namespace msys::appdsl {

/// Parse result: the application plus the optional schedule/machine
/// information present in the text.
struct ParsedExperiment {
  model::Application app;
  /// Kernel names per cluster; empty when the text has no `cluster` lines.
  std::vector<std::vector<std::string>> partition;
  /// Machine description (M1 defaults overridden by fbset/cm/ctxcost).
  arch::M1Config cfg;

  /// Builds the KernelSchedule from `partition` (requires cluster lines).
  /// The returned schedule references `app`, which must stay alive.
  [[nodiscard]] model::KernelSchedule schedule() const;
};

/// Parse outcome: either a finished experiment, or the complete list of
/// problems found.  Unlike the throwing parse() below, the collecting
/// parser recovers after each bad line, so one call reports *every* error
/// in the text (diagnostic codes: "parse.syntax", "parse.number.*",
/// "parse.duplicate", "parse.unknown-ref", "parse.semantic", "app.invalid",
/// "io.open").
struct ParseResult {
  /// Present iff no error-severity diagnostic was produced.
  std::optional<ParsedExperiment> experiment;
  Diagnostics diagnostics;

  [[nodiscard]] bool ok() const { return experiment.has_value(); }
};

/// Parses the format above, collecting all diagnostics instead of stopping
/// at the first problem.  Never throws on malformed input.  The reader
/// works on views into `text` while it runs, but everything it returns
/// owns its strings: no reference to `text` is kept after the call.
[[nodiscard]] ParseResult parse_collect(std::string_view text,
                                        std::string file = "<input>");

/// Reads a file into one string and parses it, collecting diagnostics (an
/// unreadable file yields a single "io.open" diagnostic).
[[nodiscard]] ParseResult parse_file_collect(const std::string& path);

/// Parses the format above.  Throws msys::Error carrying every collected
/// diagnostic on any syntax or semantic problem.
[[nodiscard]] ParsedExperiment parse(std::string_view text);

/// Reads and parses a file.  Throws msys::Error on I/O or parse problems.
[[nodiscard]] ParsedExperiment parse_file(const std::string& path);

/// Serialises an application + schedule + machine back to the text format
/// (declarations emitted producer-first, so the output always re-parses).
[[nodiscard]] std::string write(const model::Application& app,
                                const std::vector<std::vector<std::string>>& partition,
                                const arch::M1Config& cfg);

}  // namespace msys::appdsl
