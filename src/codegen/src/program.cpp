#include "msys/codegen/program.hpp"

#include <algorithm>
#include <sstream>

#include "msys/common/error.hpp"
#include "msys/obs/trace.hpp"

namespace msys::codegen {

using dsched::ClusterRoundPlan;
using dsched::DataSchedule;
using dsched::ObjInstance;
using dsched::ReleaseEvent;
using dsched::StoreEvent;

std::string to_string(OpKind kind) {
  switch (kind) {
    case OpKind::kLoadContext: return "LOAD_CTX";
    case OpKind::kLoadData: return "LOAD";
    case OpKind::kStoreData: return "STORE";
    case OpKind::kExec: return "EXEC";
    case OpKind::kRelease: return "RELEASE";
  }
  return "?";
}

std::string ScheduleProgram::summary() const {
  std::ostringstream out;
  out << slots.size() << " slots, " << dma_ops.size() << " DMA ops, " << rc_ops.size()
      << " RC ops";
  return out.str();
}

ScheduleProgram generate(const DataSchedule& schedule, const csched::ContextPlan& ctx_plan) {
  MSYS_TRACE_SPAN(span, "codegen.generate", "codegen");
  MSYS_REQUIRE(schedule.feasible, "cannot generate code for an infeasible schedule");
  MSYS_REQUIRE(ctx_plan.feasible(), "cannot generate code for an infeasible context plan");

  const model::KernelSchedule& sched = *schedule.sched;
  const std::uint32_t n_clusters = static_cast<std::uint32_t>(sched.cluster_count());
  const std::uint32_t rounds = schedule.round_count();
  const std::uint32_t n_slots = rounds * n_clusters;

  ScheduleProgram program;
  program.schedule = &schedule;
  program.slots.resize(n_slots);

  // ---- Per-slot op batches.  The IN batch is split: loads of results
  // produced by the *immediately preceding* slot cannot be prefetched —
  // they reach external memory only when that slot's stores finish, so
  // they queue behind ST(s-1) ("late" loads).  Everything else (contexts,
  // external inputs, results stored two or more slots ago) prefetches
  // normally ("early"). ----
  std::vector<std::vector<Op>> in_early(n_slots);
  std::vector<std::vector<Op>> in_late(n_slots);
  std::vector<std::vector<Op>> store_batch(n_slots);
  for (std::uint32_t s = 0; s < n_slots; ++s) {
    const std::uint32_t round = s / n_clusters;
    const ClusterId cluster_id{s % n_clusters};
    const model::Cluster& cluster = sched.cluster(cluster_id);
    const std::uint32_t iters = schedule.iterations_in_round(round);
    Slot& slot = program.slots[s];
    slot.round = round;
    slot.cluster = cluster_id;
    slot.iterations = iters;

    if (ctx_plan.words_for_slot(round, cluster_id) > 0) {
      slot.has_ctx_load = true;
      for (KernelId k : cluster.kernels) {
        in_early[s].push_back(Op{.kind = OpKind::kLoadContext, .slot = s, .kernel = k});
      }
    }
    const ClusterRoundPlan& plan = schedule.round_plan[cluster_id.index()];
    for (ObjInstance inst : plan.loads) {
      if (inst.iter >= iters) continue;
      auto& batch = dsched::is_late_load(sched, s, inst.data) ? in_late[s] : in_early[s];
      batch.push_back(Op{.kind = OpKind::kLoadData,
                         .slot = s,
                         .cluster = cluster_id,
                         .data = inst.data,
                         .iter = inst.iter});
    }
    for (const StoreEvent& store : plan.stores) {
      if (store.inst.iter >= iters) continue;
      store_batch[s].push_back(Op{.kind = OpKind::kStoreData,
                                  .slot = s,
                                  .cluster = cluster_id,
                                  .data = store.inst.data,
                                  .iter = store.inst.iter,
                                  .release_after_store = store.release_after});
    }
  }

  // ---- DMA stream: the double-buffering weave.  IN_early(s+1) is
  // prefetched during slot s when cluster s+1 computes from the other FB
  // set; otherwise it queues behind ST(s).  IN_late(s+1) — loads of slot
  // s's own results — always queues behind ST(s). ----
  std::vector<bool> emitted(n_slots, false);
  auto set_of = [&](std::uint32_t s) {
    return sched.cluster(program.slots[s].cluster).set;
  };
  auto emit_early = [&](std::uint32_t s) {
    program.dma_ops.insert(program.dma_ops.end(), in_early[s].begin(), in_early[s].end());
    emitted[s] = true;
  };
  emit_early(0);
  MSYS_REQUIRE(in_late[0].empty(), "the first slot cannot consume in-round results");
  for (std::uint32_t s = 0; s < n_slots; ++s) {
    if (s + 1 < n_slots && set_of(s + 1) != set_of(s) && !emitted[s + 1]) {
      emit_early(s + 1);
    }
    program.dma_ops.insert(program.dma_ops.end(), store_batch[s].begin(),
                           store_batch[s].end());
    if (s + 1 < n_slots) {
      if (!emitted[s + 1]) emit_early(s + 1);
      program.dma_ops.insert(program.dma_ops.end(), in_late[s + 1].begin(),
                             in_late[s + 1].end());
    }
  }

  // ---- RC stream: loop-fissioned executions with their releases. ----
  for (std::uint32_t s = 0; s < n_slots; ++s) {
    const Slot& slot = program.slots[s];
    const model::Cluster& cluster = sched.cluster(slot.cluster);
    const ClusterRoundPlan& plan = schedule.round_plan[slot.cluster.index()];
    for (std::uint32_t local = 0; local < cluster.kernels.size(); ++local) {
      for (std::uint32_t iter = 0; iter < slot.iterations; ++iter) {
        program.rc_ops.push_back(Op{.kind = OpKind::kExec,
                                    .slot = s,
                                    .kernel = cluster.kernels[local],
                                    .cluster = slot.cluster,
                                    .iter = iter});
        for (const ReleaseEvent& release : plan.releases) {
          // Clamp triggers into the (possibly partial) round: events fired
          // by truncated iterations move to the last executed one.
          const std::uint32_t trig_iter =
              std::min(release.trigger_iter, slot.iterations - 1);
          if (release.trigger_kernel != local || trig_iter != iter) continue;
          if (release.inst.iter >= slot.iterations) continue;
          program.rc_ops.push_back(Op{.kind = OpKind::kRelease,
                                      .slot = s,
                                      .cluster = release.placement_cluster,
                                      .data = release.inst.data,
                                      .iter = release.inst.iter});
        }
      }
    }
  }
  if (span.active()) {
    span.add_arg(obs::arg("slots", std::uint64_t{n_slots}));
    span.add_arg(obs::arg("dma_ops", std::uint64_t{program.dma_ops.size()}));
    span.add_arg(obs::arg("rc_ops", std::uint64_t{program.rc_ops.size()}));
  }
  return program;
}

}  // namespace msys::codegen
