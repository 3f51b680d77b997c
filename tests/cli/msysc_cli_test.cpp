// End-to-end contract for the msysc binary: exit codes for usage errors,
// the hardened --batch / -j argument handling, the --trace output (which
// must parse and pass the Chrome-trace schema check), and the single-file
// output of every report mode, pinned by a committed golden.
//
// The binary path, the source root, the example app locations and the
// goldens come in as compile definitions (MSYSC_BIN, MSYS_SOURCE_DIR,
// MSYS_DEMO_APP, MSYS_APPS_DIR, MSYS_BATCH_GOLDEN, MSYS_SINGLE_FILE_GOLDEN)
// so the test runs from any working directory.
//
// Regenerating the single-file golden (only when an intentional change to
// msysc's output is being shipped): run msysc_cli_test with
// MSYS_WRITE_GOLDEN set to the path of tests/cli/golden/single_file.tsv.
#include <gtest/gtest.h>

#include <csignal>
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "msys/common/hash.hpp"
#include "msys/obs/chrome_trace.hpp"
#include "msys/obs/json.hpp"
#include "testing/golden_cases.hpp"
#include "testing/json_reader.hpp"
#include "testing/scratch.hpp"

namespace msys {
namespace {

namespace fs = std::filesystem;

/// Runs `msysc <args>` with stdout/stderr discarded; returns the exit code
/// (or -1 if the process did not exit normally).  `env` is an optional
/// VAR=value prefix (the command runs through the shell).
int msysc(const std::string& args, const std::string& env = "") {
  const std::string cmd = (env.empty() ? "" : env + " ") + std::string(MSYSC_BIN) +
                          " " + args + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// msysc() that also captures combined stdout+stderr into *out.
int msysc_capture(const std::string& args, std::string* out,
                  const std::string& env = "") {
  const std::string cmd =
      (env.empty() ? "" : env + " ") + std::string(MSYSC_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  out->clear();
  char buf[4096];
  for (std::size_t n; (n = fread(buf, 1, sizeof buf, pipe)) > 0;) out->append(buf, n);
  const int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// A unique scratch path under the test's temp directory.
fs::path scratch(const std::string& leaf) {
  const fs::path dir = testing::scratch_dir();
  fs::create_directories(dir);
  const fs::path path = dir / leaf;
  fs::remove_all(path);  // never inherit state from a previous suite run
  return path;
}

TEST(MsyscCli, NoArgumentsIsAUsageError) { EXPECT_EQ(msysc(""), 1); }

TEST(MsyscCli, UnknownFlagIsAUsageError) {
  EXPECT_EQ(msysc("--no-such-flag " MSYS_DEMO_APP), 1);
  // Retired flags stay usage errors.
  EXPECT_EQ(msysc("--serve-chaos 8"), 1);
  EXPECT_EQ(msysc("--chaos-dir x"), 1);
}

TEST(MsyscCli, SingleFileRunSucceeds) { EXPECT_EQ(msysc(MSYS_DEMO_APP), 0); }

/// The value of counter `name` in `msysc --stats` output, or -1 if absent.
long counter_value(const std::string& output, const std::string& name) {
  std::istringstream lines(output);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields(line);
    std::string metric;
    long value = -1;
    if (fields >> metric >> value && metric == name) return value;
  }
  return -1;
}

// msysc prints the CDS job's own chain, so the chain costs no compile or
// simulation of its own: one of each per scheduler.
TEST(MsyscCli, SingleFileCompilesEachSchedulerOnce) {
  std::string out;
  ASSERT_EQ(msysc_capture("--stats " MSYS_DEMO_APP, &out), 0) << out;
  EXPECT_EQ(counter_value(out, "engine.jobs.compiled"), 3) << out;
  EXPECT_EQ(counter_value(out, "dsched.runs.cds"), 1) << out;
  EXPECT_EQ(counter_value(out, "sim.runs"), 3) << out;
}

TEST(MsyscCli, MissingInputIsAParseError) {
  EXPECT_EQ(msysc("/no/such/file.mapp"), 2);
}

TEST(MsyscCli, ModelCheckDiagnosticNamesNoSourceLocation) {
  // A model check the parser passes on as a diagnostic reads the same
  // from every checkout: the message and the condition, no file or line.
  const fs::path input = scratch("no-kernels.mapp");
  std::ofstream(input) << "app x iterations 1\n";
  std::string out;
  EXPECT_EQ(msysc_capture("/dev/stdin < " + input.string(), &out), 2);
  EXPECT_EQ(out,
            "/dev/stdin: error[app.invalid]: MSYS_REQUIRE failed: application 'x' has no "
            "kernels [!kernels_.empty()]\n");
}

TEST(MsyscCli, BadThreadCountsAreRejected) {
  // Strict parse: positive base-10 integers only.  stoi-style prefixes
  // ("4abc"), signs, zero, and out-of-range values all fail loudly.
  for (const char* bad : {"0", "-1", "4abc", "+4", "''", "99999999999999999999"}) {
    EXPECT_EQ(msysc(std::string("--batch " MSYS_APPS_DIR " -j ") + bad), 1)
        << "-j " << bad << " was accepted";
  }
  EXPECT_EQ(msysc("--batch " MSYS_APPS_DIR " -j"), 1);  // missing value
}

TEST(MsyscCli, BatchRejectsMissingAndEmptyDirectories) {
  EXPECT_EQ(msysc("--batch /no/such/dir"), 1);
  const fs::path empty = scratch("empty-dir");
  fs::create_directories(empty);
  EXPECT_EQ(msysc("--batch " + empty.string()), 1);  // no .mapp files
  EXPECT_EQ(msysc("--batch"), 1);                    // missing operand
}

TEST(MsyscCli, BatchOverTheExampleAppsSucceeds) {
  EXPECT_EQ(msysc("--batch " MSYS_APPS_DIR " -j 2"), 0);
}

TEST(MsyscCli, AnnealFlagsRejectBadOperands) {
  EXPECT_EQ(msysc("--anneal-budget 0 " MSYS_DEMO_APP), 1);
  EXPECT_EQ(msysc("--anneal-budget abc " MSYS_DEMO_APP), 1);
  EXPECT_EQ(msysc("--anneal-budget"), 1);
  EXPECT_EQ(msysc("--anneal-islands 0 " MSYS_DEMO_APP), 1);
  EXPECT_EQ(msysc("--anneal-islands"), 1);
}

TEST(MsyscCli, AnnealReportsAndIsByteIdenticalAcrossThreadCounts) {
  std::string j1;
  ASSERT_EQ(msysc_capture("--anneal --anneal-budget 48 --anneal-islands 4 -j 1 "
                          MSYS_DEMO_APP, &j1), 0);
  EXPECT_NE(j1.find("anneal:"), std::string::npos);
  EXPECT_NE(j1.find("islands x 48 moves"), std::string::npos);
  for (const char* jflag : {"-j 2", "-j 4"}) {
    std::string jn;
    ASSERT_EQ(msysc_capture(std::string("--anneal --anneal-budget 48 "
                                        "--anneal-islands 4 ") + jflag + " "
                            MSYS_DEMO_APP, &jn), 0) << jflag;
    EXPECT_EQ(jn, j1) << jflag;
  }
}

TEST(MsyscCli, TraceOutputIsValidChromeTraceJson) {
  const fs::path trace = scratch("out.json");
  ASSERT_EQ(msysc("--trace " + trace.string() + " --stats " MSYS_DEMO_APP), 0);
  std::ifstream in(trace);
  ASSERT_TRUE(in.good()) << "trace file was not written: " << trace;
  std::ostringstream text;
  text << in.rdbuf();
  testing::JsonParseResult parsed = testing::parse_json(text.str());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const Diagnostics violations = testing::validate_chrome_trace(*parsed.value);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front().message);
  // The run compiled and simulated the demo app, so both clocks and the
  // counter sidecar must be populated.
  const obs::JsonValue* events = parsed.value->find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->as_array().size(), 10u);
  const obs::JsonValue* other = parsed.value->find("otherData");
  ASSERT_NE(other, nullptr);
  const obs::JsonValue* counters = other->find("counters");
  ASSERT_NE(counters, nullptr);
  const obs::JsonValue* sim_total = counters->find("sim.cycles.total");
  ASSERT_NE(sim_total, nullptr);
  EXPECT_GT(sim_total->as_number(), 0.0);
}

TEST(MsyscCli, TraceToAnUnwritablePathFails) {
  EXPECT_EQ(msysc("--trace /no/such/dir/out.json " MSYS_DEMO_APP), 1);
}

TEST(MsyscCli, TraceWithoutAFileIsAUsageError) { EXPECT_EQ(msysc("--trace"), 1); }

// ---------------------------------------------------------------------------
// Fault tolerance: persistent store, deadlines, fault injection, crash
// recovery.
// ---------------------------------------------------------------------------

TEST(MsyscCli, StoreFlagsRejectMissingOperands) {
  EXPECT_EQ(msysc("--batch " MSYS_APPS_DIR " --store"), 1);
  EXPECT_EQ(msysc("--verify-store"), 1);
  EXPECT_EQ(msysc("--batch " MSYS_APPS_DIR " --deadline-ms"), 1);
  EXPECT_EQ(msysc("--batch " MSYS_APPS_DIR " --deadline-ms -5"), 1);
  EXPECT_EQ(msysc("--batch " MSYS_APPS_DIR " --retries nope"), 1);
}

TEST(MsyscCli, MalformedFaultSpecIsAUsageError) {
  EXPECT_EQ(msysc(MSYS_DEMO_APP, "MSYS_FAULTS=garbage"), 1);
  EXPECT_EQ(msysc(MSYS_DEMO_APP, "MSYS_FAULTS='seed=1;x=1/0'"), 1);
}

TEST(MsyscCli, SecondBatchRunIsServedFromTheStore) {
  const fs::path store = scratch("store");
  ASSERT_EQ(msysc("--batch " MSYS_APPS_DIR " --store " + store.string()), 0);
  std::string out;
  ASSERT_EQ(msysc_capture("--batch " MSYS_APPS_DIR " --store " + store.string(), &out),
            0);
  // The warm run must report disk-tier service, not a recompute.
  EXPECT_NE(out.find("from store"), std::string::npos) << out;
  EXPECT_EQ(msysc("--verify-store " + store.string()), 0);
}

TEST(MsyscCli, TornWritesAreQuarantinedAndRecomputedOnRerun) {
  const fs::path store = scratch("store");
  // Every save publishes a truncated record (simulated crash mid-write).
  ASSERT_EQ(msysc("--batch " MSYS_APPS_DIR " --store " + store.string(),
                  "MSYS_FAULTS='seed=3;store.write.torn=always'"),
            0);
  // The rerun must detect the corruption, quarantine, recompute, and still
  // succeed — corruption is a miss, never a crash.
  std::string out;
  ASSERT_EQ(msysc_capture("--batch " MSYS_APPS_DIR " --store " + store.string(), &out),
            0);
  // Every entry was torn, so the rerun quarantined at least one — the
  // stats line must not report "0 quarantined".
  EXPECT_EQ(out.find("0 quarantined"), std::string::npos) << out;
  EXPECT_EQ(out.find("from store"), std::string::npos) << out;
  EXPECT_EQ(msysc("--verify-store " + store.string()), 0);
}

TEST(MsyscCli, DeadlineTimeoutIsAStructuredInfeasibleExit) {
  // A forced 200ms stall against a 25ms budget: exit 3 (does not fit the
  // wall-clock budget), with a "timeout" status — never exit 4.
  std::string out;
  EXPECT_EQ(msysc_capture("--batch " MSYS_APPS_DIR " --deadline-ms 25", &out,
                          "MSYS_FAULTS='seed=7;engine.compile.stall=always:200'"),
            3);
  EXPECT_NE(out.find("timeout"), std::string::npos) << out;
  EXPECT_NE(out.find("timed out"), std::string::npos) << out;
}

TEST(MsyscCli, RetriesRecoverAnIntermittentStall) {
  // With seed=2 at rate 1/2, some first-attempt draws fire and the retry
  // draws do not (the injector is a pure function of seed/site/occurrence,
  // so this is deterministic for this apps dir, not flaky): without
  // retries the batch times out, with retries a clean attempt lands.
  const std::string faults = "MSYS_FAULTS='seed=2;engine.compile.stall=1/2:200'";
  EXPECT_EQ(msysc("--batch " MSYS_APPS_DIR " --deadline-ms 50", faults), 3);
  EXPECT_EQ(msysc("--batch " MSYS_APPS_DIR " --deadline-ms 50 --retries 2", faults), 0);
}

TEST(MsyscCli, VerifyStoreOnAFreshDirectoryIsCleanAndExitsZero) {
  const fs::path store = scratch("fresh");
  std::string out;
  EXPECT_EQ(msysc_capture("--verify-store " + store.string(), &out), 0);
  EXPECT_NE(out.find("clean"), std::string::npos) << out;
}

TEST(MsyscCli, KilledBatchRunRecoversOnRerunWithTheSameStore) {
  const fs::path store = scratch("store");
  fs::create_directories(store);

  // Child: a batch run pinned in a 5s compile stall so the SIGKILL always
  // lands mid-run (a crashed writer, as far as the store is concerned).
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::setenv("MSYS_FAULTS", "seed=1;engine.compile.stall=always:5000", 1);
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, 1);
      ::dup2(devnull, 2);
    }
    ::execl(MSYSC_BIN, "msysc", "--batch", MSYS_APPS_DIR, "--store",
            store.c_str(), static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  ::usleep(400 * 1000);  // let it start compiling, then crash it hard
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited before the kill landed";

  // Recovery: the fsck sweep and a clean rerun against the same store
  // directory must both succeed.
  EXPECT_EQ(msysc("--verify-store " + store.string()), 0);
  EXPECT_EQ(msysc("--batch " MSYS_APPS_DIR " --store " + store.string()), 0);
  EXPECT_EQ(msysc("--verify-store " + store.string()), 0);
}

// ---------------------------------------------------------------------------
// Batch results: the --results-out bytes, pinned by a committed golden.
// ---------------------------------------------------------------------------

/// Reads a whole file ("" when missing/unreadable).
std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(MsyscCli, BatchResultsMatchTheGoldenAcrossThreadsAndStoreTiers) {
  // The canonical line excludes the cache tier, so a cold run at any -j
  // and a warm rerun served from the store all write the golden's bytes.
  const std::string golden = slurp(MSYS_BATCH_GOLDEN);
  ASSERT_FALSE(golden.empty());
  const std::string store = " --store " + scratch("store").string();
  // -j 1, -j 4, then a cold and a warm run over the same store.
  for (const std::string& flags :
       {std::string(" -j 1"), std::string(" -j 4"), store, store}) {
    const fs::path got = scratch("got.tsv");
    const std::string args = "--batch " MSYS_APPS_DIR + flags;
    ASSERT_EQ(msysc(args + " --results-out " + got.string()), 0) << args;
    EXPECT_EQ(slurp(got), golden) << args;
  }
  EXPECT_EQ(msysc("--batch " MSYS_APPS_DIR " --results-out"), 1);  // missing operand
}

// ---------------------------------------------------------------------------
// Single-file output: every report mode over the example apps and the fuzz
// corpus, pinned by a committed golden.
// ---------------------------------------------------------------------------

/// "<exit>\t<stdout hash>\t<stderr hash>" of `msysc <args>`, run from the
/// source root so diagnostics name the input by its relative path.
std::string single_file_outcome(const std::string& args) {
  const fs::path out = scratch("stdout");
  const fs::path err = scratch("stderr");
  const std::string cmd = "cd " MSYS_SOURCE_DIR " && " MSYSC_BIN " " + args + " >" +
                          out.string() + " 2>" + err.string();
  const int status = std::system(cmd.c_str());
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::string outcome = std::to_string(code);
  for (const fs::path& stream : {out, err}) {
    Hasher h;
    h.update_bytes(slurp(stream));
    outcome += '\t' + testing::hex(h.finalize());
  }
  return outcome;
}

TEST(MsyscCli, SingleFileOutputMatchesTheGolden) {
  std::vector<std::string> inputs;
  for (const char* dir : {"examples/apps", "tests/fuzzing/corpus"}) {
    for (const fs::directory_entry& entry :
         fs::directory_iterator(fs::path(MSYS_SOURCE_DIR) / dir)) {
      if (entry.path().extension() == ".mapp") {
        inputs.push_back(std::string(dir) + "/" + entry.path().filename().string());
      }
    }
  }
  ASSERT_GE(inputs.size(), 8u);
  const std::vector<std::pair<std::string, std::string>> modes = {
      {"plain", ""},
      {"--emit", "--emit"},
      {"--timeline", "--timeline"},
      {"--cross-set", "--cross-set"},
      {"--search", "--search"},
      {"--validate", "--validate"},
      {"--anneal", "--anneal --anneal-budget 48"}};

  testing::GoldenTable current;
  for (const auto& [mode, flags] : modes) {
    for (const std::string& input : inputs) {
      current.emplace(std::make_pair(mode, input), single_file_outcome(flags + " " + input));
    }
  }

  if (const char* write_path = std::getenv("MSYS_WRITE_GOLDEN")) {
    if (std::string(write_path).ends_with("single_file.tsv")) {
      ASSERT_TRUE(testing::write_golden(write_path,
                                        "mode\tinput\texit\tstdout-hash\tstderr-hash\t— "
                                        "see msysc_cli_test.cpp; regenerate only with an "
                                        "intentional output change",
                                        current))
          << write_path;
      GTEST_SKIP() << "golden file rewritten: " << write_path;
    }
  }

  std::string error;
  const testing::GoldenTable golden = testing::read_golden(MSYS_SINGLE_FILE_GOLDEN, error);
  ASSERT_EQ(error, "");
  EXPECT_EQ(golden.size(), current.size());
  for (const auto& [key, value] : current) {
    const auto it = golden.find(key);
    if (it == golden.end()) {
      ADD_FAILURE() << key.first << " " << key.second << ": missing from the golden";
    } else {
      EXPECT_EQ(value, it->second) << key.first << " " << key.second;
    }
  }
}

TEST(MsyscCli, UnparsableFileInABatchIsAParseErrorRow) {
  const fs::path apps = scratch("apps");
  fs::create_directories(apps);
  for (const fs::directory_entry& entry : fs::directory_iterator(MSYS_APPS_DIR)) {
    fs::copy_file(entry.path(), apps / entry.path().filename());
  }
  std::ofstream(apps / "broken.mapp") << "this is not an application\n";
  const fs::path got = scratch("got.tsv");
  EXPECT_EQ(msysc("--batch " + apps.string() + " --results-out " + got.string()), 2);
  // broken.mapp sorts first; the healthy files keep their golden rows,
  // shifted down by one index.
  const std::string results = slurp(got);
  EXPECT_TRUE(results.starts_with("0\tbroken.mapp\t-\t-\t-\tparse-error\t2\n"))
      << results;
  EXPECT_NE(results.find("1\tdemo.mapp\tCDS\t"), std::string::npos) << results;
}

TEST(MsyscCli, ExhaustedStoreReadsWarnAndKeepTheResultBytes) {
  // Every read of a warm store fails: each job exhausts its retry budget,
  // recomputes, and says so on stderr — yet the results are unchanged.
  const fs::path store = scratch("store");
  ASSERT_EQ(msysc("--batch " MSYS_APPS_DIR " --store " + store.string()), 0);
  const fs::path got = scratch("got.tsv");
  std::string out;
  ASSERT_EQ(msysc_capture("--batch " MSYS_APPS_DIR " --store " + store.string() +
                              " --results-out " + got.string(),
                          &out, "MSYS_FAULTS='seed=11;store.read.io_error=always'"),
            0);
  EXPECT_NE(out.find("warning[store.read.exhausted]"), std::string::npos) << out;
  EXPECT_EQ(slurp(got), slurp(MSYS_BATCH_GOLDEN));
}

TEST(MsyscCli, ServeFlagsRejectMissingOperands) {
  EXPECT_EQ(msysc("--serve"), 1);
  EXPECT_EQ(msysc("--gen-trace"), 1);
  EXPECT_EQ(msysc("--serve-out /tmp/x.tsv"), 1);  // --serve-out without --serve
  EXPECT_EQ(msysc("--tenants 0 --serve /tmp/x.trace"), 1);
}

TEST(MsyscCli, GenTraceThenServeRoundTripsDeterministically) {
  const fs::path trace = scratch("arrivals.trace");
  const fs::path out1 = scratch("out1.tsv");
  const fs::path out2 = scratch("out2.tsv");
  ASSERT_EQ(msysc("--gen-trace " + trace.string() +
                  " --trace-jobs 16 --streams 4 --seed 5 --deadline-cycles 20000000"),
            0);
  std::string serve_out;
  ASSERT_EQ(msysc_capture("--serve " + trace.string() + " --tenants 2 -j 2 --serve-out " +
                              out1.string(),
                          &serve_out),
            0);
  EXPECT_NE(serve_out.find("served 16 jobs across 2 tenants"), std::string::npos)
      << serve_out;

  // Replaying the same trace with a different compile thread count must
  // produce byte-identical per-job outcome records.
  ASSERT_EQ(msysc("--serve " + trace.string() + " --tenants 2 -j 1 --serve-out " +
                  out2.string()),
            0);
  std::ifstream a(out1, std::ios::binary), b(out2, std::ios::binary);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  ASSERT_FALSE(sa.str().empty());
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(MsyscCli, MalformedTraceIsAParseError) {
  const fs::path bad = scratch("bad.trace");
  std::ofstream(bad) << "this is not a trace\n";
  EXPECT_EQ(msysc("--serve " + bad.string()), 2);
}

TEST(MsyscCli, ImpossiblePartitionIsAStructuredFailure) {
  const fs::path trace = scratch("arrivals.trace");
  ASSERT_EQ(msysc("--gen-trace " + trace.string() + " --trace-jobs 4"), 0);
  // 16 tenants over 8 RC rows: zero-row shares, coded partition rejection.
  EXPECT_EQ(msysc("--serve " + trace.string() + " --tenants 16"), 1);
}

TEST(MsyscCli, OverloadFlagsShedAndStayDeterministic) {
  const fs::path trace = scratch("hot.trace");
  const fs::path out1 = scratch("out1.tsv");
  const fs::path out2 = scratch("out2.tsv");
  // Arrivals ~10x hotter than the machine drains: with the watermark on,
  // the run must shed (reported in the summary and the TSV) and still be
  // byte-identical across compile thread counts.
  ASSERT_EQ(msysc("--gen-trace " + trace.string() +
                  " --trace-jobs 24 --streams 4 --seed 13 --mean-gap 15000"
                  " --deadline-cycles 2000000"),
            0);
  const std::string overload_flags =
      " --tenants 2 --shed-cycles 600000 --degraded-cycles 2200000";
  std::string serve_out;
  ASSERT_EQ(msysc_capture("--serve " + trace.string() + overload_flags +
                              " -j 2 --serve-out " + out1.string(),
                          &serve_out),
            0);
  EXPECT_NE(serve_out.find(" shed"), std::string::npos) << serve_out;
  ASSERT_EQ(msysc("--serve " + trace.string() + overload_flags +
                  " -j 1 --serve-out " + out2.string()),
            0);
  std::ifstream a(out1, std::ios::binary), b(out2, std::ios::binary);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_NE(sa.str().find("shed-overload"), std::string::npos);
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(MsyscCli, OverloadFlagsRejectBadOperands) {
  EXPECT_EQ(msysc("--shed-cycles"), 1);
  EXPECT_EQ(msysc("--degraded-cycles"), 1);
  EXPECT_EQ(msysc("--shed-cycles banana --serve /tmp/x.trace"), 1);
}

}  // namespace
}  // namespace msys
