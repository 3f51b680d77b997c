// Pins the output of the bench binaries that print through the report
// runner: Table 1, Figure 6, the TF-ranking and joint RF/retention
// ablations, and the cross-set, tiling and FB-size extensions.  Each
// binary's exit code and stdout hash must match the committed golden.
//
// The bench directory and the golden path come in as compile definitions
// (MSYS_BENCH_DIR, MSYS_BENCH_GOLDEN).  Regenerate the golden only with an
// intentional output change: run report_test with MSYS_WRITE_GOLDEN set to
// the path of tests/report/golden/bench_outputs.tsv.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "msys/common/hash.hpp"
#include "testing/golden_cases.hpp"
#include "testing/scratch.hpp"

namespace msys {
namespace {

namespace fs = std::filesystem;

/// "<exit>\t<stdout hash>" of one bench binary.
std::string bench_outcome(const std::string& name) {
  const fs::path dir = testing::scratch_dir();
  fs::create_directories(dir);
  const fs::path out = dir / (name + ".out");
  const std::string cmd =
      std::string(MSYS_BENCH_DIR) + "/" + name + " >" + out.string() + " 2>/dev/null";
  const int status = std::system(cmd.c_str());
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream in(out, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  fs::remove(out);
  Hasher h;
  h.update_bytes(bytes.str());
  return std::to_string(code) + '\t' + testing::hex(h.finalize());
}

TEST(BenchGolden, RunnerDrivenBenchOutputsMatchTheGolden) {
  testing::GoldenTable current;
  for (const char* name : {"table1", "fig6", "ablation_tf", "ablation_joint", "ext_cross_set",
                           "ext_tiling", "sweep_fbsize"}) {
    current.emplace(std::make_pair(name, "stdout"), bench_outcome(name));
  }

  if (const char* write_path = std::getenv("MSYS_WRITE_GOLDEN")) {
    if (std::string(write_path).ends_with("bench_outputs.tsv")) {
      ASSERT_TRUE(testing::write_golden(write_path,
                                        "bench\tstream\texit\thash\t— see "
                                        "bench_golden_test.cpp; regenerate only with an "
                                        "intentional output change",
                                        current))
          << write_path;
      GTEST_SKIP() << "golden file rewritten: " << write_path;
    }
  }

  std::string error;
  const testing::GoldenTable golden = testing::read_golden(MSYS_BENCH_GOLDEN, error);
  ASSERT_EQ(error, "");
  EXPECT_EQ(golden, current);
}

}  // namespace
}  // namespace msys
