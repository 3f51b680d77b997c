#include "msys/appdsl/parser.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory_resource>
#include <optional>
#include <sstream>
#include <utility>

#include "msys/common/error.hpp"
#include "msys/model/application.hpp"

namespace msys::appdsl {

using model::Application;
using model::ApplicationBuilder;

namespace {

/// Concatenates diagnostic message pieces (strings, views and literals).
template <class... Parts>
std::string concat(const Parts&... parts) {
  std::string out;
  (out.append(std::string_view(parts)), ...);
  return out;
}

using Tokens = std::pmr::vector<std::string_view>;

/// Splits a line into whitespace-separated tokens, dropping '#' comments.
/// The tokens are views into `line`.
void tokenize(std::string_view line, Tokens& tokens) {
  tokens.clear();
  std::size_t begin = 0;
  std::size_t i = 0;
  for (; i < line.size() && line[i] != '#'; ++i) {
    // Most bytes are name or number bytes, above the space.
    if (static_cast<unsigned char>(line[i]) > ' ') continue;
    if (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
      if (i > begin) tokens.push_back(line.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  if (i > begin) tokens.push_back(line.substr(begin, i - begin));
}

/// Internal control flow only: aborts the current *line*, never escapes
/// parse_collect (the per-line dispatcher catches it and records the
/// diagnostic, then continues with the next line).
struct LineAbort {
  Diagnostic diagnostic;
};

struct OutSpec {
  std::string_view name;
  SizeWords size;
  bool final{false};
};

/// Object and kernel names (two name spaces) to their ids, in one
/// open-addressing table whose slots come from the parser's scratch
/// buffer.  Keys are views into the text being parsed.
class NameTable {
 public:
  enum class Kind : std::uint8_t { kData, kKernel };

  explicit NameTable(std::pmr::memory_resource* scratch) : slots_(kFirstSize, scratch) {}

  /// The id `name` was inserted under as `kind`, if any.
  [[nodiscard]] std::optional<std::uint32_t> find(Kind kind, std::string_view name) {
    const Slot& slot = probe(kind, name);
    if (slot.name.data() == nullptr) return std::nullopt;
    return slot.id;
  }

  /// Records `name` as `kind` with `id`; the name must not be there yet.
  void insert(Kind kind, std::string_view name, std::uint32_t id) {
    if (2 * (used_ + 1) > slots_.size()) grow();
    probe(kind, name) = Slot{name, id, kind};
    ++used_;
  }

 private:
  struct Slot {
    std::string_view name;  // data() == nullptr: empty slot
    std::uint32_t id{0};
    Kind kind{Kind::kData};
  };

  static constexpr std::size_t kFirstSize = 128;  // a power of two

  /// Names are a few bytes: up to eight take one multiply, longer ones
  /// one more per eight bytes.
  static std::size_t hash(Kind kind, std::string_view name) {
    std::uint64_t h = name.size() * 2 + static_cast<std::uint64_t>(kind);
    for (std::size_t at = 0; at < name.size(); at += 8) {
      std::uint64_t word = 0;
      __builtin_memcpy(&word, name.data() + at, std::min<std::size_t>(8, name.size() - at));
      h = (h ^ word) * 0x9e3779b97f4a7c15ULL;
    }
    return static_cast<std::size_t>(h ^ (h >> 29));
  }

  /// The slot holding (kind, name), or the empty slot where it would go.
  Slot& probe(Kind kind, std::string_view name) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(kind, name) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.name.data() == nullptr || (slot.kind == kind && slot.name == name)) return slot;
    }
  }

  void grow() {
    const std::pmr::vector<Slot> previous = std::exchange(
        slots_, std::pmr::vector<Slot>(2 * slots_.size(), slots_.get_allocator()));
    for (const Slot& slot : previous) {
      if (slot.name.data() != nullptr) probe(slot.kind, slot.name) = slot;
    }
  }

  std::pmr::vector<Slot> slots_;
  std::size_t used_{0};
};

/// Parser state threaded through the line handlers.  Tokens and the keys
/// of the name table are views into the text passed to run(), which
/// outlives the Parser.
class Parser {
 public:
  explicit Parser(std::string file) : file_(std::move(file)) {}

  ParseResult run(std::string_view text) {
    for (std::size_t begin = 0; begin < text.size();) {
      std::size_t end = text.find('\n', begin);
      if (end == std::string_view::npos) end = text.size();
      ++line_no_;
      tokenize(text.substr(begin, end - begin), tokens_);
      begin = end + 1;
      if (tokens_.empty()) continue;
      try {
        dispatch(tokens_);
      } catch (const LineAbort& abort) {
        diags_.push_back(abort.diagnostic);
      }
    }
    return finish();
  }

 private:
  [[noreturn]] void fail(std::string code, const std::string& message) const {
    throw LineAbort{make_error(std::move(code), "appdsl: " + message,
                               SourceLoc{file_, line_no_})};
  }

  std::uint64_t parse_u64(std::string_view token, const char* what) const {
    if (token.empty()) fail("parse.number.missing", concat(what, " missing"));
    if (token[0] == '-') {
      fail("parse.number.negative", concat(what, " must not be negative: ", token));
    }
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t value = 0;
    for (char c : token) {
      if (c < '0' || c > '9') {
        fail("parse.number.garbage", concat(what, " must be a number: ", token));
      }
      const auto digit = static_cast<std::uint64_t>(c - '0');
      if (value > (kMax - digit) / 10) {
        fail("parse.number.overflow", concat(what, " overflows: ", token));
      }
      value = value * 10 + digit;
    }
    return value;
  }

  /// Bounded number with an explicit inclusive range; every numeric field
  /// of the format has a hard floor of 1 (zero-iteration apps, zero-size
  /// objects and zero-latency kernels are all structurally invalid).
  std::uint64_t parse_bounded(std::string_view token, const char* what, std::uint64_t min,
                              std::uint64_t max) const {
    const std::uint64_t value = parse_u64(token, what);
    if (value < min) {
      fail("parse.number.range",
           concat(what, " must be at least ", std::to_string(min), ": ", token));
    }
    if (value > max) {
      fail("parse.number.overflow", concat(what, " exceeds the supported maximum ",
                                           std::to_string(max), ": ", token));
    }
    return value;
  }

  std::uint32_t parse_u32(std::string_view token, const char* what,
                          std::uint64_t min = 1) const {
    return static_cast<std::uint32_t>(
        parse_bounded(token, what, min, std::numeric_limits<std::uint32_t>::max()));
  }

  OutSpec parse_out_spec(std::string_view token) const {
    OutSpec spec;
    const std::size_t first = token.find(':');
    if (first == std::string_view::npos) {
      fail("parse.syntax", concat("out spec needs <name>:<size>: ", token));
    }
    spec.name = token.substr(0, first);
    if (spec.name.empty()) fail("parse.syntax", concat("out spec has an empty name: ", token));
    const std::size_t second = token.find(':', first + 1);
    const std::string_view size_str = second == std::string_view::npos
                                          ? token.substr(first + 1)
                                          : token.substr(first + 1, second - first - 1);
    spec.size = SizeWords{
        parse_bounded(size_str, "out size", 1, std::numeric_limits<std::uint64_t>::max())};
    if (second != std::string_view::npos) {
      const std::string_view flag = token.substr(second + 1);
      if (flag != "final") fail("parse.syntax", concat("unknown out flag: ", flag));
      spec.final = true;
    }
    return spec;
  }

  void dispatch(const Tokens& tok) {
    const std::string_view kw = tok[0];
    if (kw == "app") {
      handle_app(tok);
      return;
    }
    if (!builder_.has_value()) {
      fail("parse.syntax", "first declaration must be an app line");
    }
    if (kw == "input") {
      handle_input(tok);
    } else if (kw == "kernel") {
      handle_kernel(tok);
    } else if (kw == "cluster") {
      handle_cluster(tok);
    } else if (kw == "fbset") {
      if (tok.size() != 2) fail("parse.syntax", "expected: fbset <words>");
      cfg_.fb_set_size = SizeWords{
          parse_bounded(tok[1], "fbset", 1, std::numeric_limits<std::uint64_t>::max())};
    } else if (kw == "cm") {
      if (tok.size() != 2) fail("parse.syntax", "expected: cm <words>");
      cfg_.cm_capacity_words = parse_u32(tok[1], "cm");
    } else if (kw == "ctxcost") {
      if (tok.size() != 2) fail("parse.syntax", "expected: ctxcost <cycles>");
      cfg_.dma.cycles_per_context_word = Cycles{parse_bounded(
          tok[1], "ctxcost", 1, std::numeric_limits<std::uint64_t>::max())};
    } else {
      fail("parse.syntax", concat("unknown keyword: ", kw));
    }
  }

  void handle_app(const Tokens& tok) {
    if (builder_.has_value()) fail("parse.duplicate", "duplicate app line");
    if (tok.size() != 4 || tok[2] != "iterations") {
      fail("parse.syntax", "expected: app <name> iterations <count>");
    }
    // On a bad iteration count, still install a placeholder builder so the
    // rest of the file parses and its own problems are reported too.
    std::uint32_t iterations = 1;
    try {
      iterations = parse_u32(tok[3], "iterations");
    } catch (const LineAbort&) {
      builder_.emplace(std::string(tok[1]), 1u);
      throw;
    }
    builder_.emplace(std::string(tok[1]), iterations);
  }

  void handle_input(const Tokens& tok) {
    if (tok.size() != 3) fail("parse.syntax", "expected: input <name> <size>");
    if (names_.find(kData, tok[1])) {
      fail("parse.duplicate", concat("duplicate data name: ", tok[1]));
    }
    const SizeWords size{parse_bounded(tok[2], "input size", 1,
                                       std::numeric_limits<std::uint64_t>::max())};
    names_.insert(kData, tok[1],
                  builder_->external_input(std::string(tok[1]), size).index());
  }

  void handle_kernel(const Tokens& tok) {
    // kernel <name> ctx <words> cycles <cycles> in <data>... [out <spec>...]
    if (tok.size() < 7 || tok[2] != "ctx" || tok[4] != "cycles" || tok[6] != "in") {
      fail("parse.syntax",
           "expected: kernel <name> ctx <w> cycles <c> in <data>... [out ...]");
    }
    if (names_.find(kKernel, tok[1])) {
      fail("parse.duplicate", concat("duplicate kernel name: ", tok[1]));
    }
    const std::uint32_t ctx_words = parse_u32(tok[3], "ctx words");
    const Cycles cycles{parse_bounded(tok[5], "cycles", 1,
                                      std::numeric_limits<std::uint64_t>::max())};
    const auto out = std::find(tok.begin() + 7, tok.end(), std::string_view("out"));
    inputs_.clear();
    for (auto it = tok.begin() + 7; it != out; ++it) {
      const std::optional<std::uint32_t> found = names_.find(kData, *it);
      if (!found) fail("parse.unknown-ref", concat("unknown data object: ", *it));
      inputs_.push_back(DataId{*found});
    }
    if (inputs_.empty()) fail("parse.syntax", "kernel needs at least one input");
    // Validate the out specs *before* mutating the builder, so a bad spec
    // does not leave a half-declared kernel behind.
    specs_.clear();
    if (out != tok.end()) {
      if (out + 1 == tok.end()) fail("parse.syntax", "out with no specs");
      for (auto it = out + 1; it != tok.end(); ++it) {
        const OutSpec spec = parse_out_spec(*it);
        if (names_.find(kData, spec.name)) {
          fail("parse.duplicate", concat("duplicate data name: ", spec.name));
        }
        for (const OutSpec& earlier : specs_) {
          if (earlier.name == spec.name) {
            fail("parse.duplicate", concat("duplicate data name: ", spec.name));
          }
        }
        specs_.push_back(spec);
      }
    }
    const KernelId k = builder_->kernel(std::string(tok[1]), ctx_words, cycles);
    for (const DataId in : inputs_) builder_->add_input(k, in);
    names_.insert(kKernel, tok[1], k.index());
    for (const OutSpec& spec : specs_) {
      names_.insert(kData, spec.name,
                    builder_->output(k, std::string(spec.name), spec.size, spec.final).index());
    }
  }

  void handle_cluster(const Tokens& tok) {
    if (tok.size() < 2) fail("parse.syntax", "cluster needs at least one kernel");
    for (std::size_t i = 1; i < tok.size(); ++i) {
      if (!names_.find(kKernel, tok[i])) {
        fail("parse.unknown-ref", concat("cluster references unknown kernel: ", tok[i]));
      }
    }
    partition_.emplace_back(tok.begin() + 1, tok.end());
  }

  ParseResult finish() {
    ParseResult result;
    result.diagnostics = std::move(diags_);
    if (!builder_.has_value()) {
      result.diagnostics.push_back(make_error(
          "parse.syntax", "appdsl: empty input (no app line)", SourceLoc{file_, 0}));
      return result;
    }
    if (has_errors(result.diagnostics)) return result;
    // Whole-application validation (unconsumed objects, cycles, ...) —
    // surfaced as a diagnostic rather than a raw throw.
    try {
      ParsedExperiment parsed{std::move(*builder_).build(), std::move(partition_),
                              arch::M1Config::validated(std::move(cfg_))};
      result.experiment.emplace(std::move(parsed));
    } catch (const Error& e) {
      result.diagnostics.push_back(
          make_error("app.invalid", e.what(), SourceLoc{file_, 0}));
    }
    return result;
  }

  static constexpr NameTable::Kind kData = NameTable::Kind::kData;
  static constexpr NameTable::Kind kKernel = NameTable::Kind::kKernel;

  std::string file_;
  int line_no_{0};
  Diagnostics diags_;
  std::optional<ApplicationBuilder> builder_;
  // The parser's own containers (tokens, a kernel line's inputs and out
  // specs, the name table) bump-allocate from a buffer inside the Parser
  // and spill to the heap only on a large text; nothing in them outlives
  // run().
  std::array<std::byte, 8192> scratch_buffer_;
  std::pmr::monotonic_buffer_resource scratch_{scratch_buffer_.data(), scratch_buffer_.size()};
  Tokens tokens_{&scratch_};
  std::pmr::vector<DataId> inputs_{&scratch_};
  std::pmr::vector<OutSpec> specs_{&scratch_};
  NameTable names_{&scratch_};
  std::vector<std::vector<std::string>> partition_;
  arch::M1Config cfg_ = arch::M1Config::m1_default();
};

}  // namespace

model::KernelSchedule ParsedExperiment::schedule() const {
  MSYS_REQUIRE(!partition.empty(), "text contained no cluster lines");
  std::vector<std::vector<KernelId>> ids;
  for (const std::vector<std::string>& cluster : partition) {
    std::vector<KernelId> kernel_ids;
    for (const std::string& name : cluster) {
      auto id = app.find_kernel(name);
      MSYS_REQUIRE(id.has_value(), "cluster references unknown kernel: " + name);
      kernel_ids.push_back(*id);
    }
    ids.push_back(std::move(kernel_ids));
  }
  return model::KernelSchedule::from_partition(app, std::move(ids));
}

ParseResult parse_collect(std::string_view text, std::string file) {
  Parser parser(std::move(file));
  return parser.run(text);
}

ParseResult parse_file_collect(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    ParseResult result;
    result.diagnostics.push_back(
        make_error("io.open", "cannot open " + path, SourceLoc{path, 0}));
    return result;
  }
  // One byte past the size the file system reports, so a single read
  // reaches end of file; a pipe, or a file that grew meanwhile, is read on
  // in doubling chunks.  A read error (a directory) ends the text, which
  // then parses as empty.
  std::error_code size_error;
  const std::uintmax_t size = std::filesystem::file_size(path, size_error);
  std::string text(size_error ? 4096 : size + 1, '\0');
  std::size_t filled = 0;
  while (in.read(text.data() + filled, static_cast<std::streamsize>(text.size() - filled))) {
    filled = text.size();
    text.resize(2 * text.size());
  }
  text.resize(filled + static_cast<std::size_t>(in.gcount()));
  return parse_collect(text, path);
}

ParsedExperiment parse(std::string_view text) {
  ParseResult result = parse_collect(text);
  if (!result.ok()) raise(render(result.diagnostics));
  return std::move(*result.experiment);
}

ParsedExperiment parse_file(const std::string& path) {
  ParseResult result = parse_file_collect(path);
  if (!result.ok()) raise(render(result.diagnostics));
  return std::move(*result.experiment);
}

std::string write(const Application& app,
                  const std::vector<std::vector<std::string>>& partition,
                  const arch::M1Config& cfg) {
  std::ostringstream out;
  out << "app " << app.name() << " iterations " << app.total_iterations() << '\n';
  for (const model::DataObject& d : app.data_objects()) {
    if (!d.producer.valid()) out << "input " << d.name << ' ' << d.size.value() << '\n';
  }
  // Kernels in topological order so every referenced object is declared
  // before use when re-parsing.
  for (KernelId kid : app.topological_order()) {
    const model::Kernel& k = app.kernel(kid);
    out << "kernel " << k.name << " ctx " << k.context_words << " cycles "
        << k.exec_cycles.value() << " in";
    for (DataId in : k.inputs) out << ' ' << app.data(in).name;
    if (!k.outputs.empty()) {
      out << " out";
      for (DataId o : k.outputs) {
        const model::DataObject& d = app.data(o);
        out << ' ' << d.name << ':' << d.size.value();
        if (d.required_in_external_memory) out << ":final";
      }
    }
    out << '\n';
  }
  for (const std::vector<std::string>& cluster : partition) {
    out << "cluster";
    for (const std::string& k : cluster) out << ' ' << k;
    out << '\n';
  }
  out << "fbset " << cfg.fb_set_size.value() << '\n';
  out << "cm " << cfg.cm_capacity_words << '\n';
  out << "ctxcost " << cfg.dma.cycles_per_context_word.value() << '\n';
  return out.str();
}

}  // namespace msys::appdsl
