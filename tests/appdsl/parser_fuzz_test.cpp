// Parser robustness: random mutations of valid sources must either parse
// or throw msys::Error with a line-numbered message — never crash, hang or
// produce an invalid Application.
//
// ParserGolden pins what the reader makes of each input, not only that it
// survives: per input the ok flag, a hash of the rendered diagnostics and,
// when ok, a hash of the re-written text, against
// tests/appdsl/golden/parse_outcomes.tsv.  Inputs: every mutated source of
// MutatedSourcesNeverCrash, the fuzz corpus, the example apps and
// hand-written edge cases of the line and token rules.  Regenerate only
// with an intentional change to the accepted language or its diagnostics:
// run appdsl_test with MSYS_WRITE_GOLDEN set to the golden file's path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "msys/appdsl/parser.hpp"
#include "msys/common/error.hpp"
#include "msys/common/hash.hpp"
#include "msys/common/rng.hpp"
#include "msys/workloads/random.hpp"
#include "testing/golden_cases.hpp"

namespace msys::appdsl {
namespace {

std::string valid_source(std::uint64_t seed) {
  workloads::RandomSpec spec;
  spec.seed = seed;
  workloads::RandomExperiment exp = workloads::make_random(spec);
  std::vector<std::vector<std::string>> partition;
  for (const model::Cluster& c : exp.sched.clusters()) {
    std::vector<std::string> names;
    for (KernelId k : c.kernels) names.push_back(exp.app->kernel(k).name);
    partition.push_back(std::move(names));
  }
  return write(*exp.app, partition, exp.cfg);
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, RandomWorkloadsRoundTrip) {
  const std::string text = valid_source(GetParam());
  ParsedExperiment parsed = parse(text);
  // Re-emitting the parse must be a fixed point.
  const std::string again = write(parsed.app, parsed.partition, parsed.cfg);
  EXPECT_EQ(text, again);
  // The schedule builds.
  model::KernelSchedule sched = parsed.schedule();
  EXPECT_GT(sched.cluster_count(), 0u);
}

constexpr int kTrials = 200;

/// The kTrials randomly mutated copies of seed's valid source.
std::vector<std::string> mutated_sources(std::uint64_t seed) {
  const std::string base = valid_source(seed);
  Rng rng(seed * 31 + 7);
  std::vector<std::string> texts;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::string text = base;
    const int mutations = static_cast<int>(rng.uniform(1, 6));
    for (int m = 0; m < mutations; ++m) {
      if (text.empty()) break;
      const std::size_t pos = rng.uniform(0, text.size() - 1);
      switch (rng.uniform(0, 3)) {
        case 0:  // flip a character
          text[pos] = static_cast<char>(rng.uniform(32, 126));
          break;
        case 1:  // delete a span
          text.erase(pos, rng.uniform(1, 20));
          break;
        case 2:  // duplicate a span
          text.insert(pos, text.substr(pos, rng.uniform(1, 20)));
          break;
        default:  // insert noise
          text.insert(pos, "\nkernel ");
          break;
      }
    }
    texts.push_back(std::move(text));
  }
  return texts;
}

TEST_P(ParserFuzz, MutatedSourcesNeverCrash) {
  for (const std::string& text : mutated_sources(GetParam())) {
    try {
      ParsedExperiment parsed = parse(text);
      // If it parsed, the application must be structurally sound.
      EXPECT_GT(parsed.app.kernel_count(), 0u);
      if (!parsed.partition.empty()) {
        try {
          model::KernelSchedule sched = parsed.schedule();
          EXPECT_GT(sched.cluster_count(), 0u);
        } catch (const Error&) {
          // A mutated partition may be invalid; that is an acceptable
          // rejection.
        }
      }
    } catch (const Error&) {
      // Expected rejection path.
    }
  }
}

constexpr std::uint64_t kFirstSeed = 1;
constexpr std::uint64_t kEndSeed = 9;

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(kFirstSeed, kEndSeed));

std::string text_hash(std::string_view text) {
  Hasher h;
  h.update_bytes(text);
  return testing::hex(h.finalize());
}

/// "ok\t<diagnostics-hash>\t<write-hash>", or "rejected\t<diagnostics-hash>\t-".
std::string outcome(std::string_view text, const std::string& file) {
  const ParseResult result = parse_collect(text, file);
  const std::string diagnostics = text_hash(render(result.diagnostics));
  if (!result.ok()) return "rejected\t" + diagnostics + "\t-";
  const ParsedExperiment& parsed = *result.experiment;
  return "ok\t" + diagnostics + '\t' + text_hash(write(parsed.app, parsed.partition, parsed.cfg));
}

/// Hand-written inputs at the edges of the line and token rules.
std::vector<std::pair<std::string, std::string>> edge_cases() {
  const std::string body =
      "app e iterations 2\ninput a 8\nkernel k ctx 4 cycles 9 in a out r:4:final\ncluster k\n";
  std::string crlf;
  for (char c : body) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  std::string tabs = body;
  std::replace(tabs.begin(), tabs.end(), ' ', '\t');
  return {
      {"body", body},
      {"crlf", crlf},
      {"tabs", tabs},
      {"no-trailing-newline", body.substr(0, body.size() - 1)},
      {"empty", ""},
      {"lone-newline", "\n"},
      {"lone-cr", "\r"},
      {"blank-and-comment-lines",
       "  \t \n# heading\n" + body.substr(0, 19) + "   \n\t# indented comment\n" +
           body.substr(19) + "#\n \r\n"},
      {"glued-comment",
       "app e iterations 2# tail\ninput a 8#x\nkernel k ctx 4 cycles 9 in a out "
       "r:4:final#\ncluster k#k2\n"},
      {"glued-comment-in-name", "app e iterations 2\ninput a#b 8\n"},
      {"nul-in-token", std::string("app e iterations 2\ninput a\0b 8\n", 31)},
      {"nul-in-number", std::string("app e iterations 2\ninput a 8\0\n", 30)},
      {"vertical-tab", "app e iterations 2\ninput\va 8\n"},
      {"cr-inside-line", "app e\riterations 2\ninput a 8\rkernel k\n"},
      {"blank-lines-only", "\n\n \n\t\n"},
      {"comment-only", "# nothing here\n#\n"},
      {"no-app-line", "input a 8\nkernel k ctx 4 cycles 9 in a\n"},
      {"leading-plus", "app e iterations +2\n"},
      {"overflow", "app e iterations 99999999999999999999999\n"},
      {"u32-overflow", "app e iterations 4294967296\ninput a 18446744073709551615\n"},
      {"out-spec-edges",
       "app e iterations 2\ninput a 8\nkernel k ctx 4 cycles 9 in a out :4 r: r:4:x r:4:final:\n"},
      {"duplicate-out", "app e iterations 2\ninput a 8\nkernel k ctx 4 cycles 9 in a out r:4 r:4\n"},
      {"unconsumed-input",
       "app e iterations 2\ninput a 8\ninput b 8\nkernel k ctx 4 cycles 9 in a out r:4:final\n"},
      {"self-loop",
       "app e iterations 2\ninput a 8\nkernel k ctx 4 cycles 9 in a out r:4\n"
       "kernel j ctx 4 cycles 9 in r out a:4:final\n"},
  };
}

/// Every input the golden pins, keyed (group, name), with its outcome.
testing::GoldenTable parse_outcomes() {
  testing::GoldenTable table;
  for (std::uint64_t seed = kFirstSeed; seed < kEndSeed; ++seed) {
    const std::vector<std::string> texts = mutated_sources(seed);
    for (std::size_t trial = 0; trial < texts.size(); ++trial) {
      table.emplace(std::make_pair("fuzz", std::to_string(seed) + "/" + std::to_string(trial)),
                    outcome(texts[trial], "<input>"));
    }
  }
  for (const auto& [group, dir] : {std::make_pair(std::string("corpus"),
                                                  std::string(MSYS_FUZZ_CORPUS_DIR)),
                                   std::make_pair(std::string("examples"),
                                                  std::string(MSYS_APPS_DIR))}) {
    for (const std::filesystem::directory_entry& entry :
         std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() != ".mapp") continue;
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream text;
      text << in.rdbuf();
      const std::string name = entry.path().filename().string();
      table.emplace(std::make_pair(group, name), outcome(text.str(), group + "/" + name));
    }
  }
  for (const auto& [name, text] : edge_cases()) {
    table.emplace(std::make_pair("edge", name), outcome(text, "<input>"));
  }
  return table;
}

TEST(ParserGolden, OutcomesMatchCommittedGolden) {
  const testing::GoldenTable current = parse_outcomes();
  if (const char* write_path = std::getenv("MSYS_WRITE_GOLDEN")) {
    ASSERT_TRUE(testing::write_golden(write_path,
                                      "group\tinput\tok\tdiagnostics-hash\twrite-hash — see "
                                      "parser_fuzz_test.cpp; regenerate only with an "
                                      "intentional change to the language or its diagnostics",
                                      current))
        << write_path;
    GTEST_SKIP() << "golden file rewritten: " << write_path;
  }

  std::string error;
  const testing::GoldenTable golden = testing::read_golden(MSYS_PARSE_GOLDEN_FILE, error);
  ASSERT_EQ(error, "");
  std::size_t accepted = 0;
  for (const auto& [key, value] : golden) {
    const auto it = current.find(key);
    ASSERT_NE(it, current.end()) << "golden input disappeared: " << key.first << " / "
                                 << key.second;
    EXPECT_EQ(it->second, value) << key.first << " / " << key.second
                                 << ": parse outcome diverged from the committed golden";
    if (value.starts_with("ok")) ++accepted;
  }
  EXPECT_EQ(golden.size(), current.size())
      << "input set drifted from the golden file; regenerate deliberately";
  // Both outcomes are exercised: the fuzz trials mostly reject, the
  // corpus, examples and the clean edge cases parse.
  EXPECT_GE(accepted, 10u);
  EXPECT_GE(golden.size() - accepted, 1000u);
}

}  // namespace
}  // namespace msys::appdsl
