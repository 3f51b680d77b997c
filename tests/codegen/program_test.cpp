#include "msys/codegen/program.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "msys/common/error.hpp"
#include "msys/dsched/schedulers.hpp"
#include "msys/extract/analysis.hpp"
#include "testing/apps.hpp"
#include "testing/round_plan_edit.hpp"

namespace msys::codegen {
namespace {

using dsched::DataSchedule;
using extract::ScheduleAnalysis;
using testing::RetentionApp;
using testing::TwoClusterApp;
using testing::test_cfg;

struct Generated {
  DataSchedule schedule;
  csched::ContextPlan ctx_plan;
  ScheduleProgram program;
};

Generated generate_for(const model::KernelSchedule& sched, const arch::M1Config& cfg,
                       const dsched::DataSchedulerBase& scheduler) {
  ScheduleAnalysis analysis(sched);
  Generated g{scheduler.schedule(analysis, cfg),
              csched::ContextPlan::build(sched, cfg.cm_capacity_words), {}};
  g.program = generate(g.schedule, g.ctx_plan);
  return g;
}

TEST(Codegen, SlotCountIsRoundsTimesClusters) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/4);
  Generated g = generate_for(t.sched, test_cfg(4096), dsched::BasicScheduler{});
  EXPECT_EQ(g.program.slots.size(), 8u);  // 4 rounds x 2 clusters
  EXPECT_EQ(g.program.slots[0].iterations, 1u);
}

TEST(Codegen, RejectsInfeasibleSchedule) {
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(100);
  DataSchedule bad = dsched::BasicScheduler{}.schedule(analysis, cfg);
  csched::ContextPlan plan = csched::ContextPlan::build(t.sched, cfg.cm_capacity_words);
  EXPECT_THROW((void)generate(bad, plan), Error);
}

TEST(Codegen, ExecOpsFollowLoopFission) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/4);
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(2048, /*cm=*/127);  // per-slot reloads
  DataSchedule s = dsched::DataScheduler{}.schedule(analysis, cfg);
  ASSERT_GE(s.rf, 2u);
  ScheduleProgram program =
      generate(s, csched::ContextPlan::build(t.sched, cfg.cm_capacity_words));
  // Within slot 0: p1 runs `rf` times before p2 appears.
  std::vector<std::pair<KernelId, std::uint32_t>> slot0;
  for (const Op& op : program.rc_ops) {
    if (op.kind == OpKind::kExec && op.slot == 0) slot0.push_back({op.kernel, op.iter});
  }
  const std::uint32_t rf = s.rf;
  ASSERT_EQ(slot0.size(), 2 * rf);
  for (std::uint32_t i = 0; i < rf; ++i) {
    EXPECT_EQ(slot0[i].first, *t.app->find_kernel("p1"));
    EXPECT_EQ(slot0[i].second, i);
    EXPECT_EQ(slot0[rf + i].first, *t.app->find_kernel("p2"));
  }
}

TEST(Codegen, DmaWeaveOrder) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/2);
  Generated g = generate_for(t.sched, test_cfg(4096, 127), dsched::BasicScheduler{});
  // With alternating sets the weave is IN(0) IN(1) ST(0) IN(2) ST(1) ...
  std::vector<std::uint32_t> first_in_positions(g.program.slots.size(), UINT32_MAX);
  std::vector<std::uint32_t> first_st_positions(g.program.slots.size(), UINT32_MAX);
  for (std::uint32_t i = 0; i < g.program.dma_ops.size(); ++i) {
    const Op& op = g.program.dma_ops[i];
    auto& table = (op.kind == OpKind::kStoreData) ? first_st_positions : first_in_positions;
    table[op.slot] = std::min(table[op.slot], i);
  }
  // IN(s+1) is issued before ST(s) (prefetch during slot s)...
  for (std::size_t s = 0; s + 1 < g.program.slots.size(); ++s) {
    ASSERT_NE(first_in_positions[s + 1], UINT32_MAX);
    if (first_st_positions[s] != UINT32_MAX) {
      EXPECT_LT(first_in_positions[s + 1], first_st_positions[s]) << "slot " << s;
    }
    // ...but after ST(s-1) (the previous same-set story is covered by the
    // weave construction; at minimum INs stay in slot order).
    EXPECT_LT(first_in_positions[s], first_in_positions[s + 1]);
  }
}

TEST(Codegen, StoreReleaseFlagsFollowRetention) {
  RetentionApp r = RetentionApp::make();
  Generated g = generate_for(r.sched, test_cfg(4096), dsched::CompleteDataScheduler{});
  ASSERT_EQ(g.schedule.retained.size(), 2u);
  const DataId sr = *r.app->find_data("sr");
  for (const Op& op : g.program.dma_ops) {
    if (op.kind == OpKind::kStoreData) {
      EXPECT_NE(op.data, sr) << "retained non-final result must not be stored";
    }
  }
}

TEST(Codegen, PartialLastRoundDropsInstances) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/3);
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(600, /*cm=*/127);  // RF=2 pays off
  DataSchedule s = dsched::DataScheduler{}.schedule(analysis, cfg);
  ASSERT_EQ(s.rf, 2u);
  ScheduleProgram program =
      generate(s, csched::ContextPlan::build(t.sched, cfg.cm_capacity_words));
  ASSERT_EQ(program.slots.size(), 4u);
  EXPECT_EQ(program.slots[2].iterations, 1u);  // second round: 1 iteration
  for (const Op& op : program.dma_ops) {
    EXPECT_LT(op.iter, program.slots[op.slot].iterations);
  }
  for (const Op& op : program.rc_ops) {
    EXPECT_LT(op.iter, program.slots[op.slot].iterations);
  }
}

TEST(Codegen, ContextLoadsOnlyWhenPlanRequires) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/3);
  // Persistent regime: context loads only in round 0.
  Generated g = generate_for(t.sched, test_cfg(4096, 256), dsched::BasicScheduler{});
  int ctx_ops = 0;
  for (const Op& op : g.program.dma_ops) {
    if (op.kind == OpKind::kLoadContext) {
      ++ctx_ops;
      EXPECT_LT(op.slot, 2u);  // first round only
    }
  }
  EXPECT_EQ(ctx_ops, 4);  // one per kernel
  // Per-slot regime: one load per kernel per slot.
  Generated g2 = generate_for(t.sched, test_cfg(4096, 127), dsched::BasicScheduler{});
  int ctx_ops2 = 0;
  for (const Op& op : g2.program.dma_ops) {
    if (op.kind == OpKind::kLoadContext) ++ctx_ops2;
  }
  EXPECT_EQ(ctx_ops2, 2 * 6);  // 2 kernels per cluster x 6 slots
}

TEST(Codegen, ReleasesBalanceNonStoreResidency) {
  // Every loaded or produced instance is eventually freed exactly once:
  // by a RELEASE op or by its store's release_after flag.
  RetentionApp r = RetentionApp::make(/*iterations=*/4);
  Generated g = generate_for(r.sched, test_cfg(4096), dsched::CompleteDataScheduler{});
  std::map<std::uint64_t, int> balance;  // (data,iter) -> net count per round
  auto key = [](DataId d, std::uint32_t iter) {
    return (static_cast<std::uint64_t>(d.index()) << 32) | iter;
  };
  const auto& app = *r.app;
  // Filter (not break): the DMA weave interleaves slot s+1 prefetches
  // before slot s stores, so ops are not strictly slot-ordered.
  for (const Op& op : g.program.dma_ops) {
    if (op.slot >= r.sched.cluster_count()) continue;  // first round only
    if (op.kind == OpKind::kLoadData) ++balance[key(op.data, op.iter)];
    if (op.kind == OpKind::kStoreData && op.release_after_store) {
      --balance[key(op.data, op.iter)];
    }
  }
  for (const Op& op : g.program.rc_ops) {
    if (op.slot >= r.sched.cluster_count()) continue;
    if (op.kind == OpKind::kExec) {
      for (DataId out : app.kernel(op.kernel).outputs) ++balance[key(out, op.iter)];
    }
    if (op.kind == OpKind::kRelease) --balance[key(op.data, op.iter)];
  }
  for (const auto& [k, net] : balance) {
    EXPECT_EQ(net, 0) << "instance leaked or double-freed in round";
  }
}

/// (data, iter) of the releases that directly follow the execution of
/// `kernel` at `iter` in `slot`, in stream order.
std::vector<std::pair<DataId, std::uint32_t>> releases_after(const ScheduleProgram& program,
                                                             std::uint32_t slot,
                                                             KernelId kernel,
                                                             std::uint32_t iter) {
  std::vector<std::pair<DataId, std::uint32_t>> out;
  bool after = false;
  for (const Op& op : program.rc_ops) {
    if (op.kind == OpKind::kExec) {
      after = op.slot == slot && op.kernel == kernel && op.iter == iter;
    } else if (after) {
      out.emplace_back(op.data, op.iter);
    }
  }
  return out;
}

TEST(Codegen, ReleasesSharingATriggerKeepPlanOrder) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/3);
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(600, /*cm=*/127);  // RF=2: rounds of 2 and 1
  DataSchedule s = dsched::DataScheduler{}.schedule(analysis, cfg);
  ASSERT_EQ(s.rf, 2u);
  const DataId a = *t.app->find_data("a");
  const DataId b = *t.app->find_data("b");
  const DataId shared = *t.app->find_data("shared");
  // Three releases fired by p1's iteration 0, interleaved in the plan with
  // one fired by p2's iteration 1.
  testing::edit_releases(s.round_plan, ClusterId{0}, [&](auto& releases) {
    releases = {
        {.trigger_kernel = 0, .trigger_iter = 0, .inst = {shared, 0}},
        {.trigger_kernel = 1, .trigger_iter = 1, .inst = {b, 1}},
        {.trigger_kernel = 0, .trigger_iter = 0, .inst = {a, 0}},
        {.trigger_kernel = 0, .trigger_iter = 0, .inst = {b, 0}},
    };
  });
  const ScheduleProgram program =
      generate(s, csched::ContextPlan::build(t.sched, cfg.cm_capacity_words));
  const KernelId p1 = *t.app->find_kernel("p1");
  const KernelId p2 = *t.app->find_kernel("p2");
  using Released = std::vector<std::pair<DataId, std::uint32_t>>;
  EXPECT_EQ(releases_after(program, 0, p1, 0), (Released{{shared, 0}, {a, 0}, {b, 0}}));
  EXPECT_EQ(releases_after(program, 0, p1, 1), Released{});
  EXPECT_EQ(releases_after(program, 0, p2, 1), (Released{{b, 1}}));
  // Every round replays the plan: cluster 0's slot in the next round too.
  ASSERT_EQ(program.slots.size(), 4u);
  EXPECT_EQ(releases_after(program, 2, p1, 0), (Released{{shared, 0}, {a, 0}, {b, 0}}));
}

TEST(Codegen, PartialLastRoundClampsReleaseTriggers) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/3);
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(600, /*cm=*/127);  // RF=2: rounds of 2 and 1
  DataSchedule s = dsched::DataScheduler{}.schedule(analysis, cfg);
  ASSERT_EQ(s.rf, 2u);
  const DataId a = *t.app->find_data("a");
  const DataId b = *t.app->find_data("b");
  testing::edit_releases(s.round_plan, ClusterId{0}, [&](auto& releases) {
    releases = {
        {.trigger_kernel = 0, .trigger_iter = 1, .inst = {a, 0}},
        {.trigger_kernel = 0, .trigger_iter = 1, .inst = {a, 1}},
        {.trigger_kernel = 1, .trigger_iter = 0, .inst = {b, 0}},
        {.trigger_kernel = 1, .trigger_iter = 1, .inst = {b, 1}},
        // No kernel 2 in the cluster: never fired.
        {.trigger_kernel = 2, .trigger_iter = 0, .inst = {b, 0}},
    };
  });
  const ScheduleProgram program =
      generate(s, csched::ContextPlan::build(t.sched, cfg.cm_capacity_words));
  ASSERT_EQ(program.slots.size(), 4u);
  ASSERT_EQ(program.slots[2].iterations, 1u);
  const KernelId p1 = *t.app->find_kernel("p1");
  const KernelId p2 = *t.app->find_kernel("p2");
  using Released = std::vector<std::pair<DataId, std::uint32_t>>;
  // Full round: every release at its own trigger.
  EXPECT_EQ(releases_after(program, 0, p1, 0), Released{});
  EXPECT_EQ(releases_after(program, 0, p1, 1), (Released{{a, 0}, {a, 1}}));
  EXPECT_EQ(releases_after(program, 0, p2, 0), (Released{{b, 0}}));
  EXPECT_EQ(releases_after(program, 0, p2, 1), (Released{{b, 1}}));
  // One-iteration round: triggers at iteration 1 move to iteration 0, and
  // releases of iteration-1 instances, which the round never runs, go.
  EXPECT_EQ(releases_after(program, 2, p1, 0), (Released{{a, 0}}));
  EXPECT_EQ(releases_after(program, 2, p2, 0), (Released{{b, 0}}));
  // The release of kernel 2, which the cluster does not have, never fires.
  std::size_t cluster0_releases = 0;
  for (const Op& op : program.rc_ops) {
    cluster0_releases += op.kind == OpKind::kRelease && op.slot % 2 == 0;
  }
  EXPECT_EQ(cluster0_releases, 4u + 2u);
}

TEST(Codegen, SummaryCountsOps) {
  TwoClusterApp t = TwoClusterApp::make();
  Generated g = generate_for(t.sched, test_cfg(4096), dsched::BasicScheduler{});
  EXPECT_NE(g.program.summary().find("slots"), std::string::npos);
  EXPECT_EQ(to_string(OpKind::kExec), "EXEC");
  EXPECT_EQ(to_string(OpKind::kLoadData), "LOAD");
}

}  // namespace
}  // namespace msys::codegen
