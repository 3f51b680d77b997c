#include "msys/codegen/program.hpp"

#include <algorithm>
#include <sstream>

#include "msys/common/error.hpp"
#include "msys/obs/trace.hpp"

namespace msys::codegen {

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

namespace {

/// What the round plan lowers to in a round of `iterations` iterations:
/// per cluster, its data transfers, and its releases bucketed by the
/// execution that fires them.  Bucket `local * iterations + i` of a cluster
/// holds, in plan order, the releases fired by the cluster's kernel `local`
/// finishing iteration i.  Triggers past the round are clamped into it
/// (events fired by truncated iterations move to the last executed one);
/// releases of instances the round does not run are dropped.
struct RoundShape {
  std::uint32_t iterations{0};
  /// Per cluster: first bucket index (n_clusters + 1 entries).
  std::vector<std::uint32_t> cluster_base;
  /// Per bucket: first entry of `releases` (buckets + 1 entries).
  std::vector<std::uint32_t> bucket_begin;
  std::vector<const ReleaseEvent*> releases;
  /// Per cluster: data loads plus stores the round runs.
  std::vector<std::uint32_t> transfers;

  void build(const DataSchedule& schedule, std::uint32_t iters) {
    const model::KernelSchedule& sched = *schedule.sched;
    const auto n_clusters = static_cast<std::uint32_t>(sched.cluster_count());
    iterations = iters;
    cluster_base.assign(n_clusters + 1, 0);
    transfers.assign(n_clusters, 0);
    for (std::uint32_t c = 0; c < n_clusters; ++c) {
      const std::size_t n_kernels = sched.cluster(ClusterId{c}).kernels.size();
      cluster_base[c + 1] = cluster_base[c] + static_cast<std::uint32_t>(n_kernels) * iters;
    }
    // Counting sort, stable in plan order: count into bucket_begin[b + 1],
    // prefix-sum, then place each release at its bucket's cursor.
    bucket_begin.assign(cluster_base[n_clusters] + 1, 0);
    auto bucket_of = [&](std::uint32_t c, const ReleaseEvent& release) -> std::uint32_t {
      const std::size_t n_kernels = sched.cluster(ClusterId{c}).kernels.size();
      if (release.trigger_kernel >= n_kernels || release.inst.iter >= iters) return UINT32_MAX;
      return cluster_base[c] + release.trigger_kernel * iters +
             std::min(release.trigger_iter, iters - 1);
    };
    const dsched::RoundPlan& plan = schedule.round_plan;
    for (std::uint32_t c = 0; c < n_clusters; ++c) {
      const ClusterId id{c};
      for (ObjInstance inst : plan.loads(id)) transfers[c] += inst.iter < iters;
      for (const StoreEvent& store : plan.stores(id)) transfers[c] += store.inst.iter < iters;
      for (const ReleaseEvent& release : plan.releases(id)) {
        const std::uint32_t b = bucket_of(c, release);
        if (b != UINT32_MAX) ++bucket_begin[b + 1];
      }
    }
    for (std::size_t b = 1; b < bucket_begin.size(); ++b) bucket_begin[b] += bucket_begin[b - 1];
    releases.resize(bucket_begin.back());
    std::vector<std::uint32_t> cursor(bucket_begin.begin(), bucket_begin.end() - 1);
    for (std::uint32_t c = 0; c < n_clusters; ++c) {
      for (const ReleaseEvent& release : plan.releases(ClusterId{c})) {
        const std::uint32_t b = bucket_of(c, release);
        if (b != UINT32_MAX) releases[cursor[b]++] = &release;
      }
    }
  }

  /// RC ops of one slot of cluster c: its executions and releases.
  [[nodiscard]] std::size_t rc_ops(std::size_t c) const {
    return (cluster_base[c + 1] - cluster_base[c]) +
           (bucket_begin[cluster_base[c + 1]] - bucket_begin[cluster_base[c]]);
  }
};

}  // namespace

ScheduleProgram generate(const DataSchedule& schedule, const csched::ContextPlan& ctx_plan) {
  MSYS_TRACE_SPAN(span, "codegen.generate", "codegen");
  MSYS_REQUIRE(schedule.feasible, "cannot generate code for an infeasible schedule");
  MSYS_REQUIRE(ctx_plan.feasible(), "cannot generate code for an infeasible context plan");

  const model::KernelSchedule& sched = *schedule.sched;
  const std::uint32_t n_clusters = static_cast<std::uint32_t>(sched.cluster_count());
  const std::uint32_t rounds = schedule.round_count();
  const std::uint32_t n_slots = rounds * n_clusters;

  // Every round but a possibly shorter last one has the first round's shape.
  RoundShape shapes[2];
  shapes[0].build(schedule, schedule.iterations_in_round(0));
  const std::uint32_t last = schedule.iterations_in_round(rounds - 1);
  if (last != shapes[0].iterations) shapes[1].build(schedule, last);
  auto shape_of = [&](std::uint32_t round) -> const RoundShape& {
    return round + 1 == rounds && last != shapes[0].iterations ? shapes[1] : shapes[0];
  };

  ScheduleProgram program;
  program.schedule = &schedule;
  program.slots.resize(n_slots);
  std::size_t n_dma = 0;
  std::size_t n_rc = 0;
  for (std::uint32_t s = 0; s < n_slots; ++s) {
    Slot& slot = program.slots[s];
    slot.round = s / n_clusters;
    slot.cluster = ClusterId{s % n_clusters};
    slot.iterations = shape_of(slot.round).iterations;
    slot.has_ctx_load = ctx_plan.words_for_slot(slot.round, slot.cluster) > 0;
    if (slot.has_ctx_load) n_dma += sched.cluster(slot.cluster).kernels.size();
    n_dma += shape_of(slot.round).transfers[slot.cluster.index()];
    n_rc += shape_of(slot.round).rc_ops(slot.cluster.index());
  }
  program.dma_ops.reserve(n_dma);
  program.rc_ops.reserve(n_rc);

  // ---- DMA stream: the double-buffering weave.  A slot's IN batch is
  // split: loads of results produced by the *immediately preceding* slot
  // cannot be prefetched — they reach external memory only when that
  // slot's stores finish, so they queue behind ST(s-1) ("late" loads).
  // Everything else (contexts, external inputs, results stored two or more
  // slots ago) prefetches normally ("early").  IN_early(s+1) is prefetched
  // during slot s when cluster s+1 computes from the other FB set;
  // otherwise it queues behind ST(s).  IN_late(s+1) always queues behind
  // ST(s). ----
  auto emit_loads = [&](std::uint32_t s, bool late) {
    const Slot& slot = program.slots[s];
    for (ObjInstance inst : schedule.round_plan.loads(slot.cluster)) {
      if (inst.iter >= slot.iterations || dsched::is_late_load(sched, s, inst.data) != late) {
        continue;
      }
      program.dma_ops.push_back(Op{.kind = OpKind::kLoadData,
                                   .slot = s,
                                   .cluster = slot.cluster,
                                   .data = inst.data,
                                   .iter = inst.iter});
    }
  };
  auto emit_early = [&](std::uint32_t s) {
    const Slot& slot = program.slots[s];
    if (slot.has_ctx_load) {
      for (KernelId k : sched.cluster(slot.cluster).kernels) {
        program.dma_ops.push_back(Op{.kind = OpKind::kLoadContext, .slot = s, .kernel = k});
      }
    }
    emit_loads(s, /*late=*/false);
  };
  auto emit_stores = [&](std::uint32_t s) {
    const Slot& slot = program.slots[s];
    for (const StoreEvent& store : schedule.round_plan.stores(slot.cluster)) {
      if (store.inst.iter >= slot.iterations) continue;
      program.dma_ops.push_back(Op{.kind = OpKind::kStoreData,
                                   .slot = s,
                                   .cluster = slot.cluster,
                                   .data = store.inst.data,
                                   .iter = store.inst.iter,
                                   .release_after_store = store.release_after});
    }
  };
  auto set_of = [&](std::uint32_t s) {
    return sched.cluster(program.slots[s].cluster).set;
  };
  emit_early(0);
  for (std::uint32_t s = 0; s < n_slots; ++s) {
    const bool next = s + 1 < n_slots;
    const bool prefetch = next && set_of(s + 1) != set_of(s);
    if (prefetch) emit_early(s + 1);
    emit_stores(s);
    if (next) {
      if (!prefetch) emit_early(s + 1);
      emit_loads(s + 1, /*late=*/true);
    }
  }

  // ---- RC stream: loop-fissioned executions, each followed by the
  // releases it fires. ----
  for (std::uint32_t s = 0; s < n_slots; ++s) {
    const Slot& slot = program.slots[s];
    const RoundShape& shape = shape_of(slot.round);
    const std::vector<KernelId>& kernels = sched.cluster(slot.cluster).kernels;
    std::uint32_t bucket = shape.cluster_base[slot.cluster.index()];
    for (std::uint32_t local = 0; local < kernels.size(); ++local) {
      for (std::uint32_t iter = 0; iter < slot.iterations; ++iter, ++bucket) {
        program.rc_ops.push_back(Op{.kind = OpKind::kExec,
                                    .slot = s,
                                    .kernel = kernels[local],
                                    .cluster = slot.cluster,
                                    .iter = iter});
        for (std::uint32_t r = shape.bucket_begin[bucket]; r < shape.bucket_begin[bucket + 1];
             ++r) {
          const ReleaseEvent& release = *shape.releases[r];
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
