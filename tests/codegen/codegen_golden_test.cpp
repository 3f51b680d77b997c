// ScheduleProgram byte-identity against a committed golden file.
//
// Pins everything codegen::generate decides, per case: the slot table
// (round, cluster, iterations, context-load flag of every slot) and every
// field of every op of the DMA and RC streams, in stream order.  The
// simulator golden (sim_test) sees the programs only through their
// reports; this one catches any reordering of the weave or of the release
// bookkeeping directly.
//
// Cases: the shared golden case set (testing/golden_cases.hpp).
//
// Regenerating the golden file (only when an intentional change to the
// generated programs is being shipped): run codegen_test with
// MSYS_WRITE_GOLDEN set to the path of tests/codegen/golden/programs.tsv.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "msys/codegen/program.hpp"
#include "msys/common/hash.hpp"
#include "testing/golden_cases.hpp"

namespace msys::codegen {
namespace {

std::string slots_hash(const std::vector<Slot>& slots) {
  Hasher h;
  h.update_u64(slots.size());
  for (const Slot& slot : slots) {
    h.update_u64(slot.round);
    h.update_u64(slot.cluster.index());
    h.update_u64(slot.iterations);
    h.update_u64(slot.has_ctx_load ? 1 : 0);
  }
  return testing::hex(h.finalize());
}

std::string stream_hash(const std::vector<Op>& ops) {
  Hasher h;
  h.update_u64(ops.size());
  for (const Op& op : ops) {
    h.update_u64(static_cast<std::uint64_t>(op.kind));
    h.update_u64(op.slot);
    h.update_u64(op.kernel.index());
    h.update_u64(op.cluster.index());
    h.update_u64(op.data.index());
    h.update_u64(op.iter);
    h.update_u64(op.release_after_store ? 1 : 0);
  }
  return testing::hex(h.finalize());
}

/// "<slots-hash>\t<dma-hash>\t<rc-hash>", or why the case has no program.
std::string lower(const testing::GoldenCase& c, const dsched::DataSchedulerBase& scheduler) {
  std::string status;
  const std::unique_ptr<testing::LoweredCase> lowered = testing::lower_case(c, scheduler, status);
  if (!lowered) return status + "\t-\t-";
  const ScheduleProgram& program = lowered->program;
  return slots_hash(program.slots) + '\t' + stream_hash(program.dma_ops) + '\t' +
         stream_hash(program.rc_ops);
}

TEST(CodegenGolden, ProgramsMatchCommittedGolden) {
  const std::vector<testing::GoldenCase> cases = testing::golden_cases(MSYS_FUZZ_CORPUS_DIR);
  ASSERT_GE(cases.size(), 20u);
  const auto schedulers = testing::golden_schedulers();

  testing::GoldenTable current;
  for (const testing::GoldenCase& c : cases) {
    for (const auto& [sname, scheduler] : schedulers) {
      current.emplace(std::make_pair(c.name, sname), lower(c, *scheduler));
    }
  }

  if (const char* write_path = std::getenv("MSYS_WRITE_GOLDEN")) {
    ASSERT_TRUE(testing::write_golden(write_path,
                                      "case\tscheduler\tslots-hash\tdma-hash\trc-hash — see "
                                      "codegen_golden_test.cpp; regenerate only with an "
                                      "intentional output change",
                                      current))
        << write_path;
    GTEST_SKIP() << "golden file rewritten: " << write_path;
  }

  std::string error;
  const testing::GoldenTable golden = testing::read_golden(MSYS_CODEGEN_GOLDEN_FILE, error);
  ASSERT_EQ(error, "");
  std::size_t generated = 0;
  for (const auto& [key, value] : golden) {
    const auto it = current.find(key);
    ASSERT_NE(it, current.end()) << "golden case disappeared: " << key.first << " / "
                                 << key.second;
    EXPECT_EQ(it->second, value) << key.first << " / " << key.second
                                 << ": generated program diverged from the committed golden";
    if (value.find('-') == std::string::npos) ++generated;
  }
  EXPECT_EQ(golden.size(), current.size())
      << "case set drifted from the golden file; regenerate deliberately";
  EXPECT_GE(generated, 36u);
}

}  // namespace
}  // namespace msys::codegen
