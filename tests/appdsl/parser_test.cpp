#include "msys/appdsl/parser.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "msys/common/error.hpp"
#include "msys/workloads/experiments.hpp"
#include "testing/scratch.hpp"

namespace msys::appdsl {
namespace {

constexpr const char* kDemo = R"(
# demo pipeline
app demo iterations 8
input a 64
input b 32
kernel k1 ctx 16 cycles 100 in a out t:24
kernel k2 ctx 16 cycles 150 in t b out r:8:final
cluster k1
cluster k2
fbset 512
cm 96
ctxcost 2
)";

TEST(Parser, ParsesDemo) {
  ParsedExperiment parsed = parse(kDemo);
  EXPECT_EQ(parsed.app.name(), "demo");
  EXPECT_EQ(parsed.app.total_iterations(), 8u);
  EXPECT_EQ(parsed.app.kernel_count(), 2u);
  EXPECT_EQ(parsed.app.data_count(), 4u);
  EXPECT_EQ(parsed.cfg.fb_set_size, SizeWords{512});
  EXPECT_EQ(parsed.cfg.cm_capacity_words, 96u);
  EXPECT_EQ(parsed.cfg.dma.cycles_per_context_word, Cycles{2});
}

TEST(Parser, KernelDetails) {
  ParsedExperiment parsed = parse(kDemo);
  const model::Kernel& k2 = parsed.app.kernel(*parsed.app.find_kernel("k2"));
  EXPECT_EQ(k2.context_words, 16u);
  EXPECT_EQ(k2.exec_cycles, Cycles{150});
  EXPECT_EQ(k2.inputs.size(), 2u);
  const model::DataObject& r = parsed.app.data(*parsed.app.find_data("r"));
  EXPECT_TRUE(r.required_in_external_memory);
  EXPECT_EQ(r.size, SizeWords{8});
}

TEST(Parser, BuildsSchedule) {
  ParsedExperiment parsed = parse(kDemo);
  model::KernelSchedule sched = parsed.schedule();
  EXPECT_EQ(sched.cluster_count(), 2u);
  EXPECT_EQ(sched.cluster(ClusterId{1}).set, FbSet::kB);
}

TEST(Parser, CommentsAndBlanksIgnored) {
  ParsedExperiment parsed = parse("app x iterations 1   # trailing\n\n"
                                  "input d 4 # comment\n"
                                  "kernel k ctx 1 cycles 1 in d out o:1:final\n");
  EXPECT_EQ(parsed.app.kernel_count(), 1u);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    (void)parse("app x iterations 1\nbogus line here\n");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos);
  }
}

TEST(Parser, CollectReportsEveryError) {
  // One call reports all four problems, each with its own line number.
  const ParseResult result = appdsl::parse_collect(
      "app x iterations 1\n"
      "input d -4\n"                        // line 2: negative number (d stays undefined)
      "input d 4\n"                         // line 3: fine, defines d
      "bogus line here\n"                   // line 4: unknown keyword
      "input d 8\n"                         // line 5: duplicate name
      "kernel k ctx 1 cycles 1 in nope\n",  // line 6: unknown data
      "test.mapp");
  EXPECT_FALSE(result.ok());
  ASSERT_GE(result.diagnostics.size(), 4u);
  std::vector<int> lines;
  for (const Diagnostic& d : result.diagnostics) {
    EXPECT_EQ(d.loc.file, "test.mapp");
    lines.push_back(d.loc.line);
  }
  EXPECT_NE(std::find(lines.begin(), lines.end(), 2), lines.end());
  EXPECT_NE(std::find(lines.begin(), lines.end(), 4), lines.end());
  EXPECT_NE(std::find(lines.begin(), lines.end(), 5), lines.end());
  EXPECT_NE(std::find(lines.begin(), lines.end(), 6), lines.end());
}

TEST(Parser, CollectSucceedsOnCleanInput) {
  const ParseResult result = appdsl::parse_collect(kDemo);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_EQ(result.experiment->app.kernel_count(), 2u);
}

TEST(Parser, NumberDiagnosticsAreStructured) {
  struct Case {
    const char* text;
    const char* expected_code;
  };
  const Case cases[] = {
      {"app x iterations 99999999999999999999999\n", "parse.number.overflow"},
      {"app x iterations 0\n", "parse.number.range"},
      {"app x iterations -3\n", "parse.number.negative"},
      {"app x iterations many\n", "parse.number.garbage"},
      {"app x iterations 1\ninput d 4x\n", "parse.number.garbage"},
      {"app x iterations 1\ninput d 0\n", "parse.number.range"},
  };
  for (const Case& c : cases) {
    const ParseResult result = appdsl::parse_collect(c.text);
    EXPECT_FALSE(result.ok()) << c.text;
    bool found = false;
    for (const Diagnostic& d : result.diagnostics) {
      if (d.code == c.expected_code) found = true;
    }
    EXPECT_TRUE(found) << c.text << " => " << render(result.diagnostics);
  }
}

TEST(Parser, DuplicateNamesAreStructured) {
  const ParseResult result = appdsl::parse_collect(
      "app x iterations 1\ninput d 4\ninput d 4\n"
      "kernel k ctx 1 cycles 1 in d out o:1:final\n"
      "kernel k ctx 1 cycles 1 in d\n");
  EXPECT_FALSE(result.ok());
  int duplicates = 0;
  for (const Diagnostic& d : result.diagnostics) {
    if (d.code == "parse.duplicate") ++duplicates;
  }
  EXPECT_EQ(duplicates, 2);
}

TEST(Parser, RejectsUnknownData) {
  EXPECT_THROW((void)parse("app x iterations 1\nkernel k ctx 1 cycles 1 in nope\n"),
               Error);
}

TEST(Parser, RejectsDuplicateNames) {
  EXPECT_THROW((void)parse("app x iterations 1\ninput d 4\ninput d 4\n"), Error);
  EXPECT_THROW((void)parse("app x iterations 1\ninput d 4\n"
                           "kernel k ctx 1 cycles 1 in d out o:1:final\n"
                           "kernel k ctx 1 cycles 1 in d\n"),
               Error);
}

TEST(Parser, RejectsMissingApp) {
  EXPECT_THROW((void)parse("input d 4\n"), Error);
  EXPECT_THROW((void)parse(""), Error);
}

TEST(Parser, RejectsBadOutSpec) {
  EXPECT_THROW((void)parse("app x iterations 1\ninput d 4\n"
                           "kernel k ctx 1 cycles 1 in d out broken\n"),
               Error);
  EXPECT_THROW((void)parse("app x iterations 1\ninput d 4\n"
                           "kernel k ctx 1 cycles 1 in d out o:1:banana\n"),
               Error);
}

TEST(Parser, RejectsNonNumeric) {
  EXPECT_THROW((void)parse("app x iterations many\n"), Error);
  EXPECT_THROW((void)parse("app x iterations 1\ninput d four\n"), Error);
}

TEST(Parser, RejectsUnknownClusterKernel) {
  EXPECT_THROW((void)parse("app x iterations 1\ninput d 4\n"
                           "kernel k ctx 1 cycles 1 in d out o:1:final\ncluster nope\n"),
               Error);
}

TEST(Writer, RoundTripsDemo) {
  ParsedExperiment parsed = parse(kDemo);
  const std::string text = write(parsed.app, parsed.partition, parsed.cfg);
  ParsedExperiment again = parse(text);
  EXPECT_EQ(again.app.name(), parsed.app.name());
  EXPECT_EQ(again.app.kernel_count(), parsed.app.kernel_count());
  EXPECT_EQ(again.app.data_count(), parsed.app.data_count());
  EXPECT_EQ(again.app.total_data_size(), parsed.app.total_data_size());
  EXPECT_EQ(again.cfg.fb_set_size, parsed.cfg.fb_set_size);
  EXPECT_EQ(again.partition, parsed.partition);
}

TEST(ParseFile, ReadsTheWholeFile) {
  namespace fs = std::filesystem;
  const fs::path dir = testing::scratch_dir();
  fs::remove_all(dir);
  fs::create_directories(dir);
  // About 9 kB, without a trailing newline.
  std::string text = kDemo;
  for (int i = 0; i < 400; ++i) text += "# padding comment line\n";
  text += "ctxcost 3";
  const fs::path file = dir / "big.mapp";
  std::ofstream(file, std::ios::binary) << text;

  const ParseResult from_file = parse_file_collect(file.string());
  ASSERT_TRUE(from_file.ok()) << render(from_file.diagnostics);
  EXPECT_EQ(from_file.experiment->cfg.dma.cycles_per_context_word, Cycles{3});
  const ParseResult from_text = parse_collect(text, file.string());
  EXPECT_EQ(write(from_file.experiment->app, from_file.experiment->partition,
                  from_file.experiment->cfg),
            write(from_text.experiment->app, from_text.experiment->partition,
                  from_text.experiment->cfg));

  // A directory opens but reads nothing: it parses as empty input.
  const ParseResult from_dir = parse_file_collect(dir.string());
  ASSERT_EQ(from_dir.diagnostics.size(), 1u);
  EXPECT_EQ(from_dir.diagnostics[0].code, "parse.syntax");

  const ParseResult missing = parse_file_collect((dir / "missing.mapp").string());
  ASSERT_EQ(missing.diagnostics.size(), 1u);
  EXPECT_EQ(missing.diagnostics[0].code, "io.open");
  fs::remove_all(dir);
}

class RegistryRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryRoundTrip, WriteParsePreservesStructure) {
  workloads::Experiment exp = workloads::make_experiment(GetParam());
  std::vector<std::vector<std::string>> partition;
  for (const model::Cluster& c : exp.sched.clusters()) {
    std::vector<std::string> names;
    for (KernelId k : c.kernels) names.push_back(exp.app->kernel(k).name);
    partition.push_back(std::move(names));
  }
  const std::string text = write(*exp.app, partition, exp.cfg);
  ParsedExperiment again = parse(text);
  EXPECT_EQ(again.app.kernel_count(), exp.app->kernel_count());
  EXPECT_EQ(again.app.data_count(), exp.app->data_count());
  EXPECT_EQ(again.app.total_data_size(), exp.app->total_data_size());
  EXPECT_EQ(again.app.total_context_words(), exp.app->total_context_words());
  EXPECT_EQ(again.cfg.fb_set_size, exp.cfg.fb_set_size);
  EXPECT_EQ(again.cfg.cm_capacity_words, exp.cfg.cm_capacity_words);
  model::KernelSchedule sched = again.schedule();
  EXPECT_EQ(sched.cluster_count(), exp.sched.cluster_count());
}

INSTANTIATE_TEST_SUITE_P(AllExperiments, RegistryRoundTrip,
                         ::testing::ValuesIn(workloads::table1_experiment_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '*') c = 's';
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace msys::appdsl
