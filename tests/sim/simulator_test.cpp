#include "msys/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "msys/common/error.hpp"
#include "msys/common/hash.hpp"
#include "msys/dsched/cost.hpp"
#include "msys/dsched/fallback.hpp"
#include "msys/dsched/schedulers.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/workloads/random.hpp"
#include "testing/apps.hpp"
#include "testing/oracle.hpp"
#include "testing/placements.hpp"

namespace msys::sim {
namespace {

using codegen::Op;
using codegen::OpKind;
using codegen::ScheduleProgram;
using extract::ScheduleAnalysis;
using testing::RetentionApp;
using testing::TwoClusterApp;
using testing::test_cfg;

struct SimRun {
  dsched::DataSchedule schedule;
  csched::ContextPlan ctx_plan;
  ScheduleProgram program;
  SimReport report;
};

SimRun simulate(const model::KernelSchedule& sched, const arch::M1Config& cfg,
             const dsched::DataSchedulerBase& scheduler) {
  ScheduleAnalysis analysis(sched);
  SimRun r{scheduler.schedule(analysis, cfg),
        csched::ContextPlan::build(sched, cfg.cm_capacity_words), {}, {}};
  r.program = codegen::generate(r.schedule, r.ctx_plan);
  Simulator simulator(cfg, r.ctx_plan);
  r.report = simulator.run(r.program);
  return r;
}

TEST(Simulator, RunsCleanProgram) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/4);
  SimRun r = simulate(t.sched, test_cfg(1024), dsched::BasicScheduler{});
  EXPECT_GT(r.report.total.value(), 0u);
  EXPECT_EQ(r.report.exec_count, 16u);  // 4 kernels x 4 iterations
  EXPECT_EQ(r.report.compute, Cycles{1600});
}

TEST(Simulator, AgreesWithCostModelExactly) {
  // The central cross-check: two independent implementations of the same
  // timing discipline must agree cycle-for-cycle.
  for (std::uint32_t iterations : {1u, 3u, 4u, 7u}) {
    TwoClusterApp t = TwoClusterApp::make(iterations);
    for (std::uint64_t fb : {512u, 1024u, 4096u}) {
      for (std::uint32_t cm : {100u, 127u, 256u}) {
        const arch::M1Config cfg = test_cfg(fb, cm);
        for (const auto& scheduler : dsched::all_schedulers()) {
          ScheduleAnalysis analysis(t.sched);
          dsched::DataSchedule s = scheduler->schedule(analysis, cfg);
          csched::ContextPlan plan = csched::ContextPlan::build(t.sched, cm);
          if (!s.feasible || !plan.feasible()) continue;
          const dsched::CostBreakdown predicted = dsched::predict_cost(s, cfg, plan);
          Simulator simulator(cfg, plan);
          const SimReport measured = simulator.run(codegen::generate(s, plan));
          EXPECT_EQ(predicted.total, measured.total)
              << scheduler->name() << " iters=" << iterations << " fb=" << fb
              << " cm=" << cm;
          EXPECT_EQ(predicted.data_words_loaded, measured.data_words_loaded);
          EXPECT_EQ(predicted.data_words_stored, measured.data_words_stored);
          EXPECT_EQ(predicted.context_words, measured.context_words);
          EXPECT_EQ(predicted.dma_requests, measured.dma_requests);
          EXPECT_EQ(predicted.dma_busy, measured.dma_busy);
        }
      }
    }
  }
}

TEST(Simulator, PeakResidencyWithinCapacity) {
  RetentionApp r = RetentionApp::make(/*iterations=*/6);
  SimRun run = simulate(r.sched, test_cfg(512), dsched::CompleteDataScheduler{});
  EXPECT_LE(run.report.max_resident_words[0], 512u);
  EXPECT_LE(run.report.max_resident_words[1], 512u);
  EXPECT_LE(run.report.max_cm_words, 256u);
}

TEST(Simulator, DetectsMissingInput) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/1);
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024);
  dsched::DataSchedule s = dsched::BasicScheduler{}.schedule(analysis, cfg);
  csched::ContextPlan plan = csched::ContextPlan::build(t.sched, cfg.cm_capacity_words);
  ScheduleProgram program = codegen::generate(s, plan);
  // Corrupt: drop the first data load.
  auto it = std::find_if(program.dma_ops.begin(), program.dma_ops.end(),
                         [](const Op& op) { return op.kind == OpKind::kLoadData; });
  ASSERT_NE(it, program.dma_ops.end());
  program.dma_ops.erase(it);
  Simulator simulator(cfg, plan);
  EXPECT_THROW((void)simulator.run(program), Error);
}

TEST(Simulator, DetectsMissingContexts) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/1);
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024, /*cm=*/127);  // per-slot regime
  dsched::DataSchedule s = dsched::BasicScheduler{}.schedule(analysis, cfg);
  csched::ContextPlan plan = csched::ContextPlan::build(t.sched, 127);
  ScheduleProgram program = codegen::generate(s, plan);
  std::erase_if(program.dma_ops,
                [](const Op& op) { return op.kind == OpKind::kLoadContext; });
  Simulator simulator(cfg, plan);
  EXPECT_THROW((void)simulator.run(program), Error);
}

TEST(Simulator, DetectsDoubleRelease) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/1);
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024);
  dsched::DataSchedule s = dsched::DataScheduler{}.schedule(analysis, cfg);
  csched::ContextPlan plan = csched::ContextPlan::build(t.sched, cfg.cm_capacity_words);
  ScheduleProgram program = codegen::generate(s, plan);
  auto it = std::find_if(program.rc_ops.begin(), program.rc_ops.end(),
                         [](const Op& op) { return op.kind == OpKind::kRelease; });
  ASSERT_NE(it, program.rc_ops.end());
  program.rc_ops.push_back(*it);  // duplicate release at the end
  Simulator simulator(cfg, plan);
  EXPECT_THROW((void)simulator.run(program), Error);
}

TEST(Simulator, DetectsAnInstanceLeftInTheFrameBuffer) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/1);
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024);
  dsched::DataSchedule s = dsched::DataScheduler{}.schedule(analysis, cfg);
  csched::ContextPlan plan = csched::ContextPlan::build(t.sched, cfg.cm_capacity_words);
  ScheduleProgram program = codegen::generate(s, plan);
  // Drop the last release: nothing after it reuses the words, so only the
  // end-of-run check sees the instance it leaves behind.
  auto it = std::find_if(program.rc_ops.rbegin(), program.rc_ops.rend(),
                         [](const Op& op) { return op.kind == OpKind::kRelease; });
  ASSERT_NE(it, program.rc_ops.rend());
  const std::string leaked = t.app->data(it->data).name + " iter=0";
  program.rc_ops.erase(std::next(it).base());
  const Simulator::Outcome outcome = Simulator(cfg, plan).try_run(program);
  ASSERT_FALSE(outcome.ok());
  EXPECT_NE(outcome.diagnostics.front().message.find(
                "instance still resident at the end of the run: " + leaked),
            std::string::npos)
      << outcome.diagnostics.front().message;
}

TEST(Simulator, DetectsOverlappingPlacements) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/1);
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024);
  dsched::DataSchedule s = dsched::BasicScheduler{}.schedule(analysis, cfg);
  csched::ContextPlan plan = csched::ContextPlan::build(t.sched, cfg.cm_capacity_words);
  // Corrupt a placement so two objects overlap.
  const DataId a = *t.app->find_data("a");
  const DataId b = *t.app->find_data("b");
  dsched::PlacementRecord& pa = testing::placement_record(s, ClusterId{0}, {a, 0});
  const dsched::PlacementRecord& pb = testing::placement_record(s, ClusterId{0}, {b, 0});
  pa.extent_begin = pb.extent_begin;
  pa.extent_count = pb.extent_count;
  ScheduleProgram program = codegen::generate(s, plan);
  Simulator simulator(cfg, plan);
  EXPECT_THROW((void)simulator.run(program), Error);
}

TEST(Simulator, DetectsOutOfRangePlacement) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/1);
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024);
  dsched::DataSchedule s = dsched::BasicScheduler{}.schedule(analysis, cfg);
  csched::ContextPlan plan = csched::ContextPlan::build(t.sched, cfg.cm_capacity_words);
  const DataId a = *t.app->find_data("a");
  testing::set_extents(s, ClusterId{0}, {a, 0},
                       {Extent{1000, SizeWords{100}}});  // past the 1024-word set
  ScheduleProgram program = codegen::generate(s, plan);
  Simulator simulator(cfg, plan);
  EXPECT_THROW((void)simulator.run(program), Error);
}

// ---- FB occupancy edge cases.  The occupancy check works on 64-word
// bitset chunks, so word 63/64 boundaries, abutting extents, split
// placements, the end of the set, same-timestamp release/re-insert and
// empty extents each get a verdict and the exact failure message. ----

/// TwoClusterApp(1) under `scheduler`, with every cluster-0 placement moved
/// to words 512+ so a test can place the first slot's inputs `b` and `a`
/// (loaded in that order, both resident while p1 runs) anywhere in words
/// [0, 512).
class FbOccupancy : public ::testing::Test {
 protected:
  void build(const dsched::DataSchedulerBase& scheduler) {
    analysis_ = std::make_unique<ScheduleAnalysis>(app_.sched);
    schedule_ = scheduler.schedule(*analysis_, cfg_);
    ASSERT_TRUE(schedule_.feasible);
    FbAddr next = 512;
    for (const dsched::PlacementRecord& p : std::vector(schedule_.placements)) {
      const auto [cluster, inst] = dsched::DataSchedule::unkey(p.key);
      if (cluster != ClusterId{0}) continue;
      const SizeWords size = total_size(schedule_.extents_of(p));
      testing::set_extents(schedule_, cluster, inst, {Extent{next, size}});
      next += size.value();
    }
    ASSERT_LE(next, 1024u);
  }

  /// Moves the cluster-0 placement of `data`'s iteration 0 to `extents`.
  void place(const char* data, std::vector<Extent> extents) {
    const DataId id = *app_.app->find_data(data);
    testing::set_extents(schedule_, ClusterId{0}, {id, 0}, std::move(extents));
  }

  /// Empty on success, else the failing MSYS_REQUIRE's message.
  std::string run() {
    const ScheduleProgram program = codegen::generate(schedule_, plan_);
    Simulator simulator(cfg_, plan_);
    const Simulator::Outcome outcome = simulator.try_run(program);
    if (outcome.ok()) return {};
    const std::string& what = outcome.diagnostics.front().message;
    const std::string prefix = "MSYS_REQUIRE failed: ";
    if (what.rfind(prefix, 0) != 0) return what;
    return what.substr(prefix.size(), what.find(" [") - prefix.size());
  }

  TwoClusterApp app_ = TwoClusterApp::make(/*iterations=*/1);
  arch::M1Config cfg_ = test_cfg(1024);
  csched::ContextPlan plan_ = csched::ContextPlan::build(app_.sched, cfg_.cm_capacity_words);
  std::unique_ptr<ScheduleAnalysis> analysis_;
  dsched::DataSchedule schedule_;
};

// With Basic, `a` is loaded after `b`, so a collision names the load of a.
constexpr const char* kADoubly = "FB words doubly occupied: LOAD a slot=0 iter=0";

TEST_F(FbOccupancy, ExtentStraddlingA64WordBoundary) {
  build(dsched::BasicScheduler{});
  place("a", {Extent{30, SizeWords{100}}});  // words 30..129: chunks 0, 1 and 2
  place("b", {Extent{200, SizeWords{50}}});
  EXPECT_EQ(run(), "");
  place("b", {Extent{64, SizeWords{50}}});  // entirely inside a's middle chunk
  EXPECT_EQ(run(), kADoubly);
  place("b", {Extent{129, SizeWords{50}}});  // shares only a's last word
  EXPECT_EQ(run(), kADoubly);
}

TEST_F(FbOccupancy, OverlapExactlyAtWords63And64) {
  build(dsched::BasicScheduler{});
  place("a", {Extent{0, SizeWords{64}}});  // words 0..63
  place("b", {Extent{63, SizeWords{50}}});
  EXPECT_EQ(run(), kADoubly);
  place("a", {Extent{0, SizeWords{65}}});  // words 0..64
  place("b", {Extent{64, SizeWords{50}}});
  EXPECT_EQ(run(), kADoubly);
}

TEST_F(FbOccupancy, AbuttingExtentsAreNotAnOverlap) {
  build(dsched::BasicScheduler{});
  place("a", {Extent{0, SizeWords{64}}});
  place("b", {Extent{64, SizeWords{50}}});  // first word of the next chunk
  EXPECT_EQ(run(), "");
  place("a", {Extent{14, SizeWords{100}}});  // ends at word 113
  place("b", {Extent{114, SizeWords{50}}});
  EXPECT_EQ(run(), "");
  place("b", {Extent{0, SizeWords{14}}, Extent{114, SizeWords{36}}});  // both sides
  EXPECT_EQ(run(), "");
}

TEST_F(FbOccupancy, SplitPlacement) {
  build(dsched::BasicScheduler{});
  place("a", {Extent{0, SizeWords{30}}, Extent{128, SizeWords{70}}});
  place("b", {Extent{30, SizeWords{50}}});  // fills the gap, abutting the first piece
  EXPECT_EQ(run(), "");
  place("b", {Extent{78, SizeWords{50}}});  // abuts the second piece
  EXPECT_EQ(run(), "");
  place("b", {Extent{190, SizeWords{50}}});  // overlaps the second piece's tail
  EXPECT_EQ(run(), kADoubly);
  place("b", {Extent{300, SizeWords{20}}, Extent{20, SizeWords{30}}});  // second piece hits
  EXPECT_EQ(run(), kADoubly);
}

TEST_F(FbOccupancy, PlacementEndingAtTheEndOfTheSet) {
  build(dsched::BasicScheduler{});
  place("a", {Extent{924, SizeWords{100}}});  // ends at fb_set_size
  EXPECT_EQ(run(), "");
  place("a", {Extent{925, SizeWords{100}}});  // ends at fb_set_size + 1
  EXPECT_EQ(run(), "placement out of range: LOAD a slot=0 iter=0");
  // Extent by extent, out of range is checked before overlap.
  place("b", {Extent{0, SizeWords{50}}});
  place("a", {Extent{25, SizeWords{50}}, Extent{1000, SizeWords{50}}});
  EXPECT_EQ(run(), kADoubly);
  place("a", {Extent{1000, SizeWords{50}}, Extent{25, SizeWords{50}}});
  EXPECT_EQ(run(), "placement out of range: LOAD a slot=0 iter=0");
}

TEST_F(FbOccupancy, ReleaseAndReinsertAtOneTimestamp) {
  // DS releases `a` right after p1, at the cycle p2 starts and its output
  // r1 appears: removals run before insertions, so r1 may take a's words.
  build(dsched::DataScheduler{});
  const ScheduleProgram program = codegen::generate(schedule_, plan_);
  const DataId a = *app_.app->find_data("a");
  const auto release_a =
      std::find_if(program.rc_ops.begin(), program.rc_ops.end(), [&](const Op& op) {
        return op.kind == OpKind::kRelease && op.data == a;
      });
  ASSERT_NE(release_a, program.rc_ops.end());
  const auto next_exec = std::find_if(release_a, program.rc_ops.end(),
                                      [](const Op& op) { return op.kind == OpKind::kExec; });
  ASSERT_NE(next_exec, program.rc_ops.end());
  ASSERT_EQ(next_exec->kernel, *app_.app->find_kernel("p2"));
  Simulator tracer(cfg_, plan_);
  std::vector<std::pair<std::string, Cycles>> starts;
  tracer.set_trace([&](Cycles start, Cycles, const std::string& what) {
    starts.emplace_back(what, start);
  });
  (void)tracer.run(program);
  const auto start_of = [&](const std::string& what) {
    for (const auto& [w, t] : starts) {
      if (w == what) return t;
    }
    ADD_FAILURE() << "no timed op " << what;
    return Cycles::zero();
  };
  ASSERT_EQ(start_of("RELEASE a slot=0 iter=0"), start_of("EXEC p2 slot=0 iter=0"));

  place("a", {Extent{0, SizeWords{100}}});
  place("r1", {Extent{0, SizeWords{70}}});
  EXPECT_EQ(run(), "");
  // b is still resident (p2 reads it): taking its words must fail.
  place("b", {Extent{100, SizeWords{50}}});
  place("r1", {Extent{120, SizeWords{70}}});
  EXPECT_EQ(run(), "FB words doubly occupied: EXEC p2 slot=0 iter=0");
}

TEST_F(FbOccupancy, EmptyExtentStrictlyInsideAResidentOneCollides) {
  // Extent::overlaps semantics: an empty extent overlaps an extent that
  // strictly contains its address, but not one it merely touches.
  build(dsched::BasicScheduler{});
  place("a", {Extent{0, SizeWords{100}}});
  place("b", {Extent{50, SizeWords{0}}});
  EXPECT_EQ(run(), kADoubly);
  place("b", {Extent{0, SizeWords{0}}});
  EXPECT_EQ(run(), "");
  place("b", {Extent{100, SizeWords{0}}});
  EXPECT_EQ(run(), "");
  // A resident empty extent collides with a later extent strictly around it.
  place("b", {Extent{200, SizeWords{0}}});
  place("a", {Extent{150, SizeWords{100}}});
  EXPECT_EQ(run(), kADoubly);
  place("a", {Extent{200, SizeWords{100}}});
  EXPECT_EQ(run(), "");
}

TEST(Simulator, RejectsOpsOutsideTheApplication) {
  // Residency tables are sized from the program; ops or slots naming
  // iterations, rounds, slots or data the application does not have are
  // faults, never out-of-bounds accesses.
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/2);
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024);
  dsched::DataSchedule s = dsched::DataScheduler{}.schedule(analysis, cfg);
  csched::ContextPlan plan = csched::ContextPlan::build(t.sched, cfg.cm_capacity_words);
  const ScheduleProgram clean = codegen::generate(s, plan);
  for (const std::uint32_t iter : {2u, 1000000u, 0xffffffffu}) {
    ScheduleProgram program = clean;
    program.rc_ops.back().iter = iter;
    Simulator simulator(cfg, plan);
    EXPECT_FALSE(simulator.try_run(program).ok()) << iter;
  }
  ScheduleProgram program = clean;
  auto release = std::find_if(program.rc_ops.begin(), program.rc_ops.end(),
                              [](const Op& op) { return op.kind == OpKind::kRelease; });
  ASSERT_NE(release, program.rc_ops.end());
  release->data = DataId{1000};
  Simulator simulator(cfg, plan);
  EXPECT_FALSE(simulator.try_run(program).ok());
  program = clean;
  program.dma_ops.front().slot = static_cast<std::uint32_t>(program.slots.size());
  EXPECT_FALSE(simulator.try_run(program).ok());
  for (const std::uint32_t round : {2u, 0xffffffffu}) {
    program = clean;
    program.slots.back().round = round;
    EXPECT_FALSE(simulator.try_run(program).ok()) << round;
  }

  // Each stream holds only its own kinds: the DMA stream context loads,
  // data loads and stores, the RC stream executions and releases.
  auto fault = [&](const ScheduleProgram& p) {
    const Simulator::Outcome outcome = simulator.try_run(p);
    if (outcome.ok()) return std::string{};
    const std::string& what = outcome.diagnostics.front().message;
    return what.substr(0, what.find(" ["));
  };
  auto first = [](std::vector<Op>& stream, OpKind kind) {
    return std::find_if(stream.begin(), stream.end(),
                        [kind](const Op& op) { return op.kind == kind; });
  };
  program = clean;
  program.dma_ops.push_back(*first(program.rc_ops, OpKind::kRelease));
  program.rc_ops.erase(first(program.rc_ops, OpKind::kRelease));
  EXPECT_EQ(fault(program),
            "MSYS_REQUIRE failed: not a DMA op on the DMA stream: RELEASE a slot=0 iter=0");
  program = clean;
  first(program.dma_ops, OpKind::kStoreData)->kind = OpKind::kRelease;
  EXPECT_EQ(fault(program),
            "MSYS_REQUIRE failed: not a DMA op on the DMA stream: RELEASE r1 slot=0 iter=0");
  program = clean;
  program.rc_ops.insert(program.rc_ops.begin() + 1, *first(program.dma_ops, OpKind::kLoadData));
  EXPECT_EQ(fault(program),
            "MSYS_REQUIRE failed: not an RC op on the RC stream: LOAD b slot=0 iter=0");
  program = clean;
  first(program.rc_ops, OpKind::kExec)->kind = OpKind::kLoadContext;
  EXPECT_EQ(fault(program),
            "MSYS_REQUIRE failed: not an RC op on the RC stream: LOAD_CTX p1 slot=0 iter=0");
}

// ---- Dense placement index.  The functional pass looks placements up in
// a table built from the schedule; a missing entry, or an instance outside
// the table's (cluster, data, iter < RF) bounds, is the same fault the
// keyed map gave: "no placement for object instance". ----

/// Two clusters under Basic (RF = 1, three iterations): `gen` produces g
/// from nothing, `use` reads g and the external input x, and the second
/// cluster's `tail` turns use's result into the final z.
class PlacementIndex : public ::testing::Test {
 protected:
  void SetUp() override {
    model::ApplicationBuilder b("placement-index", /*total_iterations=*/3);
    const DataId x = b.external_input("x", SizeWords{50});
    const KernelId gen = b.kernel("gen", 32, Cycles{100});
    const DataId g = b.output(gen, "g", SizeWords{40});
    const KernelId use = b.kernel("use", 32, Cycles{100}, {g, x});
    const DataId r = b.output(use, "r", SizeWords{30});
    const KernelId tail = b.kernel("tail", 32, Cycles{100}, {r});
    b.output(tail, "z", SizeWords{20}, true);
    app_ = std::make_unique<model::Application>(std::move(b).build());
    sched_.emplace(model::KernelSchedule::from_partition(*app_, {{gen, use}, {tail}}));
    analysis_ = std::make_unique<ScheduleAnalysis>(*sched_);
    schedule_ = dsched::BasicScheduler{}.schedule(*analysis_, cfg_);
    ASSERT_TRUE(schedule_.feasible);
    ASSERT_EQ(schedule_.rf, 1u);
    plan_.emplace(csched::ContextPlan::build(*sched_, cfg_.cm_capacity_words));
    program_ = codegen::generate(schedule_, *plan_);
    ASSERT_TRUE(Simulator(cfg_, *plan_).try_run(program_).ok());
  }

  DataId data(const char* name) const { return *app_->find_data(name); }

  /// The first op of `stream` of `kind` on `name` (a kernel for kExec).
  Op& first(std::vector<Op>& stream, OpKind kind, const char* name) {
    const auto it = std::find_if(stream.begin(), stream.end(), [&](const Op& op) {
      return op.kind == kind && (kind == OpKind::kExec ? op.kernel == *app_->find_kernel(name)
                                                       : op.data == data(name));
    });
    EXPECT_NE(it, stream.end()) << name;
    return *it;
  }

  void erase_placement(ClusterId cluster, const char* name) {
    ASSERT_TRUE(testing::erase_placement(schedule_, cluster, {data(name), 0}));
  }

  /// The fault `program` raises.
  std::string fault(const ScheduleProgram& program) {
    const Simulator::Outcome outcome = Simulator(cfg_, *plan_).try_run(program);
    EXPECT_FALSE(outcome.ok());
    if (outcome.ok()) return {};
    EXPECT_EQ(outcome.diagnostics.front().code, "sim.fault");
    const std::string& what = outcome.diagnostics.front().message;
    const std::string prefix = "MSYS_REQUIRE failed: ";
    EXPECT_EQ(what.rfind(prefix, 0), 0u) << what;
    return what.substr(prefix.size(), what.find(" [") - prefix.size());
  }

  static constexpr const char* kNoPlacement = "no placement for object instance";

  std::unique_ptr<model::Application> app_;
  std::optional<model::KernelSchedule> sched_;
  arch::M1Config cfg_ = test_cfg(1024);
  std::unique_ptr<ScheduleAnalysis> analysis_;
  dsched::DataSchedule schedule_;
  std::optional<csched::ContextPlan> plan_;
  ScheduleProgram program_;
};

TEST_F(PlacementIndex, ErasedPlacementOfALoad) {
  erase_placement(ClusterId{0}, "x");
  EXPECT_EQ(fault(program_), kNoPlacement);
}

TEST_F(PlacementIndex, ErasedPlacementOfAnExecOutput) {
  erase_placement(ClusterId{0}, "g");
  EXPECT_EQ(fault(program_), kNoPlacement);
}

TEST_F(PlacementIndex, ReleaseOfAnInstanceWithNoPlacement) {
  // An instance's insertion and its release look up one key, so erasing
  // its placement faults at the insertion.  Pointing the release at the
  // second cluster, which holds no placement of x, leaves it the only
  // lookup that misses.
  first(program_.rc_ops, OpKind::kRelease, "x").cluster = ClusterId{1};
  EXPECT_EQ(fault(program_), kNoPlacement);
}

TEST_F(PlacementIndex, IterationsPastTheReuseFactor) {
  // RF = 1: no placement names iteration 1, though the application runs it.
  ScheduleProgram program = program_;
  first(program.dma_ops, OpKind::kLoadData, "x").iter = 1;
  EXPECT_EQ(fault(program), kNoPlacement);
  program = program_;
  first(program.rc_ops, OpKind::kExec, "gen").iter = 1;
  EXPECT_EQ(fault(program), kNoPlacement);
  program = program_;
  first(program.rc_ops, OpKind::kRelease, "x").iter = 1;
  EXPECT_EQ(fault(program), kNoPlacement);
}

// ---- Per-thread run buffers.  Runs reuse one thread's buffers whatever
// the size of the previous program, and threads never share them. ----

/// Every SimReport field, then a hash of every trace callback's arguments.
using RunRecord = std::array<std::uint64_t, 14>;

RunRecord record_run(const arch::M1Config& cfg, const SimRun& run) {
  Simulator simulator(cfg, run.ctx_plan);
  Hasher trace;
  simulator.set_trace([&](Cycles start, Cycles end, const std::string& what) {
    trace.update_u64(start.value());
    trace.update_u64(end.value());
    trace.update_bytes(what);
  });
  const SimReport r = simulator.run(run.program);
  return {r.total.value(), r.compute.value(), r.stall.value(), r.dma_busy.value(),
          r.data_words_loaded, r.data_words_stored, r.context_words, r.dma_requests,
          r.exec_count, r.release_count, r.max_resident_words[0], r.max_resident_words[1],
          std::uint64_t{r.max_cm_words}, trace.finalize()};
}

/// A program of thousands of ops and one of a few dozen, with their
/// schedules and context plans.
struct TwoPrograms {
  workloads::RandomExperiment large_exp = workloads::make_random(testing::large_spec(300001));
  TwoClusterApp small_app = TwoClusterApp::make(/*iterations=*/2);
  SimRun large;
  SimRun small;

  TwoPrograms() {
    const ScheduleAnalysis analysis(large_exp.sched, large_exp.cfg.cross_set_reads);
    large.schedule = dsched::schedule_with_fallback(analysis, large_exp.cfg).schedule;
    large.ctx_plan = csched::ContextPlan::build(large_exp.sched, large_exp.cfg.cm_capacity_words);
    large.program = codegen::generate(large.schedule, large.ctx_plan);
    small = simulate(small_app.sched, test_cfg(1024), dsched::DataScheduler{});
    small.program.schedule = &small.schedule;  // moved from simulate()'s copy
  }

  [[nodiscard]] RunRecord run_large() const { return record_run(large_exp.cfg, large); }
  [[nodiscard]] RunRecord run_small() const { return record_run(test_cfg(1024), small); }
};

TEST(SimulatorBuffers, LargeSmallLargeOnOneThread) {
  const TwoPrograms p;
  ASSERT_GT(p.large.program.dma_ops.size() + p.large.program.rc_ops.size(), 1000u);
  ASSERT_LT(p.small.program.dma_ops.size() + p.small.program.rc_ops.size(), 100u);
  const RunRecord first = p.run_large();
  const RunRecord small = p.run_small();
  const RunRecord again = p.run_large();
  EXPECT_EQ(first, again);
  // The small program's run matches one on a fresh thread.
  RunRecord fresh{};
  std::thread([&] { fresh = p.run_small(); }).join();
  EXPECT_EQ(small, fresh);
  EXPECT_EQ(small[0], p.small.report.total.value());
}

TEST(SimulatorBuffers, ConcurrentThreadsAgree) {
  const TwoPrograms p;
  const RunRecord large = p.run_large();
  const RunRecord small = p.run_small();
  constexpr int kRuns = 16;
  std::vector<RunRecord> seen[2];
  std::vector<std::thread> threads;
  std::atomic<int> ready{0};
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();  // start together
      for (int i = 0; i < kRuns; ++i) {
        // The threads alternate program sizes out of step with each other.
        seen[t].push_back((i + t) % 2 == 0 ? p.run_large() : p.run_small());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < 2; ++t) {
    ASSERT_EQ(seen[t].size(), static_cast<std::size_t>(kRuns));
    for (int i = 0; i < kRuns; ++i) {
      EXPECT_EQ(seen[t][i], (i + t) % 2 == 0 ? large : small) << "thread " << t << " run " << i;
    }
  }
}

TEST(Simulator, StallAccountsForNonOverlappedDma) {
  // Make the DMA very slow: execution must wait, so stall > 0 and total
  // is dominated by transfers.
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/2);
  arch::M1Config cfg = test_cfg(1024);
  cfg.dma.cycles_per_data_word = Cycles{50};
  cfg = arch::M1Config::validated(cfg);
  SimRun r = simulate(t.sched, cfg, dsched::BasicScheduler{});
  EXPECT_GT(r.report.stall.value(), 0u);
  EXPECT_EQ(r.report.total, r.report.compute + r.report.stall);
  EXPECT_GE(r.report.total, r.report.dma_busy);
}

TEST(Simulator, TraceCallbackSeesEveryTimedOp) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/1);
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024);
  dsched::DataSchedule s = dsched::BasicScheduler{}.schedule(analysis, cfg);
  csched::ContextPlan plan = csched::ContextPlan::build(t.sched, cfg.cm_capacity_words);
  ScheduleProgram program = codegen::generate(s, plan);
  Simulator simulator(cfg, plan);
  std::size_t events = 0;
  Cycles last_end = Cycles::zero();
  simulator.set_trace([&](Cycles start, Cycles end, const std::string& what) {
    ++events;
    EXPECT_LE(start, end);
    EXPECT_FALSE(what.empty());
    last_end = std::max(last_end, end);
  });
  SimReport report = simulator.run(program);
  EXPECT_EQ(events, program.dma_ops.size() + program.rc_ops.size());
  EXPECT_EQ(last_end, report.total);
}

TEST(Simulator, SummaryMentionsCycles) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/1);
  SimRun r = simulate(t.sched, test_cfg(1024), dsched::BasicScheduler{});
  EXPECT_NE(r.report.summary().find("total="), std::string::npos);
}

}  // namespace
}  // namespace msys::sim
