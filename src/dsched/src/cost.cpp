#include "msys/dsched/cost.hpp"

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <vector>

#include "msys/common/error.hpp"
#include "msys/common/strfmt.hpp"

namespace msys::dsched {

namespace {

/// One cluster's data transfers over one round length: the steady round
/// (RF iterations) or the last round (possibly fewer).
struct RoundDma {
  Cycles early{};  // prefetchable data loads
  Cycles late{};   // loads of the previous slot's results: they reach
                   // external memory only after ST(s-1), so they queue
                   // behind it
  Cycles store{};
  std::uint64_t words_loaded{0};
  std::uint64_t words_stored{0};
  std::uint64_t requests{0};

  [[nodiscard]] Cycles busy() const { return early + late + store; }
};

/// One cluster's round plan, priced once per call.
struct ClusterCost {
  Cycles exec_per_iter{};
  /// Context-load DMA time, words and requests of one load of the cluster.
  Cycles ctx_cycles{};
  std::uint64_t ctx_words{0};
  std::uint64_t ctx_requests{0};
  /// Whether the cluster's slot loads contexts in round 0 / in each later
  /// round.
  bool ctx_first{false};
  bool ctx_later{false};
  RoundDma full;  // rounds 0 .. rounds-2
  RoundDma last;  // the last round: instances with iter < its iterations
  /// Slots back to the previous slot on the same FB set (1..n_clusters;
  /// n_clusters is the cluster's own slot one round earlier): data loads
  /// must wait for its execution to release the set's space.
  std::uint32_t back{0};
};

/// What the weave reads of one slot.
struct SlotCost {
  Cycles exec{};
  Cycles ctx{};
  Cycles early{};
  Cycles late{};
  Cycles store{};
  bool has_ctx{false};
  std::uint32_t back{0};
};

}  // namespace

std::string CostBreakdown::summary() const {
  if (!feasible) return "infeasible: " + infeasible_reason;
  std::ostringstream out;
  out << "total=" << total.value() << "c compute=" << compute.value() << "c stall="
      << stall.value() << "c dma=" << dma_busy.value() << "c loads=" << data_words_loaded
      << "w stores=" << data_words_stored << "w ctx=" << context_words << 'w';
  return out.str();
}

CostBreakdown predict_cost(const model::KernelSchedule& sched, std::uint32_t rf,
                           const RoundPlan& plan, const arch::M1Config& cfg,
                           const csched::ContextPlan& ctx_plan) {
  CostBreakdown out;
  if (!ctx_plan.feasible()) {
    out.feasible = false;
    out.infeasible_reason = ctx_plan.infeasible_reason();
    return out;
  }
  out.feasible = true;

  const model::Application& app = sched.app();
  const std::uint32_t total_iterations = app.total_iterations();
  MSYS_REQUIRE(rf >= 1 && rf <= total_iterations, "RF outside [1, total_iterations]");
  const std::uint32_t n_clusters = static_cast<std::uint32_t>(sched.cluster_count());
  const std::uint32_t rounds = (total_iterations + rf - 1) / rf;
  const std::uint32_t n_slots = rounds * n_clusters;
  const std::uint32_t last_iters = total_iterations - (rounds - 1) * rf;
  MSYS_REQUIRE(plan.cluster_count() == n_clusters, "round plan does not cover every cluster");

  // ---- Per-cluster pricing: each round plan is walked once. ----
  std::vector<ClusterCost> clusters(n_clusters);
  for (std::uint32_t c = 0; c < n_clusters; ++c) {
    const ClusterId cluster_id{c};
    ClusterCost& cc = clusters[c];
    for (KernelId k : sched.cluster(cluster_id).kernels) {
      const model::Kernel& kernel = app.kernel(k);
      cc.exec_per_iter += kernel.exec_cycles;
      cc.ctx_cycles += cfg.dma.context_cycles(kernel.context_words);
      cc.ctx_words += kernel.context_words;
      ++cc.ctx_requests;
    }
    // words_for_slot depends on the round only through round == 0.
    cc.ctx_first = ctx_plan.words_for_slot(0, cluster_id) > 0;
    cc.ctx_later = ctx_plan.words_for_slot(1, cluster_id) > 0;

    // is_late_load depends on the slot only through the previous slot's
    // cluster, so any slot > 0 of this cluster answers for all of them
    // (slot 0, which has no previous slot, folds its late loads into its
    // early ones in the weave).
    const std::uint32_t any_slot = c == 0 ? n_clusters : c;
    for (ObjInstance inst : plan.loads(cluster_id)) {
      const SizeWords size = app.data(inst.data).size;
      const Cycles cycles = cfg.dma.data_cycles(size);
      const bool late = is_late_load(sched, any_slot, inst.data);
      auto add = [&](RoundDma& dma) {
        (late ? dma.late : dma.early) += cycles;
        dma.words_loaded += size.value();
        ++dma.requests;
      };
      if (inst.iter < rf) add(cc.full);
      if (inst.iter < last_iters) add(cc.last);
    }
    for (const StoreEvent& store : plan.stores(cluster_id)) {
      const SizeWords size = app.data(store.inst.data).size;
      const Cycles cycles = cfg.dma.data_cycles(size);
      auto add = [&](RoundDma& dma) {
        dma.store += cycles;
        dma.words_stored += size.value();
        ++dma.requests;
      };
      if (store.inst.iter < rf) add(cc.full);
      if (store.inst.iter < last_iters) add(cc.last);
    }
  }
  // Same-set back-distances over the cyclic slot order: position i of the
  // doubled cluster sequence is cluster i % n_clusters, so the second pass
  // sees every cluster's previous same-set slot.
  {
    std::uint32_t last_on_set[2] = {0, 0};
    for (std::uint32_t i = 0; i < 2 * n_clusters; ++i) {
      const std::uint32_t c = i < n_clusters ? i : i - n_clusters;
      const auto set_idx = static_cast<std::size_t>(sched.cluster(ClusterId{c}).set);
      if (i >= n_clusters) clusters[c].back = i - last_on_set[set_idx];
      last_on_set[set_idx] = i;
    }
  }

  // ---- Totals: per-cluster figures times round counts. ----
  const std::uint64_t steady_rounds = rounds - 1;
  for (const ClusterCost& cc : clusters) {
    const std::uint64_t ctx_loads = (cc.ctx_first ? 1 : 0) + (cc.ctx_later ? steady_rounds : 0);
    out.compute += cc.exec_per_iter * total_iterations;
    out.dma_busy += cc.ctx_cycles * ctx_loads + cc.full.busy() * steady_rounds + cc.last.busy();
    out.data_words_loaded += cc.full.words_loaded * steady_rounds + cc.last.words_loaded;
    out.data_words_stored += cc.full.words_stored * steady_rounds + cc.last.words_stored;
    out.context_words += cc.ctx_words * ctx_loads;
    out.dma_requests +=
        cc.ctx_requests * ctx_loads + cc.full.requests * steady_rounds + cc.last.requests;
  }

  auto slot_cost = [&](std::uint32_t s, std::uint32_t round, std::uint32_t c) {
    const ClusterCost& cc = clusters[c];
    const bool last_round = round + 1 == rounds;
    const RoundDma& dma = last_round ? cc.last : cc.full;
    SlotCost slot;
    slot.exec = cc.exec_per_iter * (last_round ? last_iters : rf);
    slot.has_ctx = round == 0 ? cc.ctx_first : cc.ctx_later;
    slot.ctx = slot.has_ctx ? cc.ctx_cycles : Cycles::zero();
    slot.early = s == 0 ? dma.early + dma.late : dma.early;
    slot.late = s == 0 ? Cycles::zero() : dma.late;
    slot.store = dma.store;
    slot.back = cc.back;
    return slot;
  };

  // ---- The double-buffering weave (see header), walked in DMA order
  // with the timeline recurrence run as each transfer starts: IN_early
  // may prefetch during the previous slot; IN_late (loads of the previous
  // slot's own results) always queues behind that slot's stores. ----
  const bool ctx_serial = !ctx_plan.overlaps_compute();
  const bool ctx_persistent = ctx_plan.regime() == csched::ContextRegime::kPersistent;
  std::vector<Cycles> exec_done(n_slots);
  Cycles dma_t = Cycles::zero();
  Cycles in_done = Cycles::zero();  // completion of the IN in flight
  auto finish_exec = [&](std::uint32_t s, const SlotCost& slot) {
    const Cycles prev_exec = (s == 0) ? Cycles::zero() : exec_done[s - 1];
    exec_done[s] = std::max(prev_exec, in_done) + slot.exec;
  };
  auto run_in_early = [&](std::uint32_t s, const SlotCost& slot) {
    Cycles ctx_start = dma_t;
    if (ctx_serial && s > 0 && slot.has_ctx) {
      // The CM cannot hold two clusters: this slot's context load must
      // wait for the previous slot's execution to release the CM.
      ctx_start = std::max(ctx_start, exec_done[s - 1]);
    } else if (!ctx_persistent && s >= 2 && slot.has_ctx) {
      // The CM holds at most two adjacent clusters' contexts: prefetch
      // reaches one slot ahead, never two — loading slot s's contexts
      // would evict slot s-2's, so it must wait for that execution.
      ctx_start = std::max(ctx_start, exec_done[s - 2]);
    }
    Cycles load_start = ctx_start + slot.ctx;
    if (slot.early.value() > 0 && s >= slot.back) {
      // Data loads overwrite FB words of the previous same-set cluster;
      // they must wait until its execution has released them.  (Its
      // stores precede these loads on the DMA channel by construction.)
      load_start = std::max(load_start, exec_done[s - slot.back]);
    }
    in_done = load_start + slot.early;
    dma_t = in_done;
    if (slot.late.value() == 0) finish_exec(s, slot);
  };
  auto run_in_late = [&](std::uint32_t s, const SlotCost& slot) {
    Cycles start = dma_t;
    if (s >= slot.back) start = std::max(start, exec_done[s - slot.back]);
    in_done = start + slot.late;
    dma_t = in_done;
    finish_exec(s, slot);
  };

  SlotCost current = slot_cost(0, 0, 0);
  run_in_early(0, current);
  std::uint32_t next_round = 0;
  std::uint32_t next_cluster = 0;
  for (std::uint32_t s = 0; s < n_slots; ++s) {
    const bool has_next = s + 1 < n_slots;
    SlotCost next;
    if (has_next) {
      if (++next_cluster == n_clusters) {
        next_cluster = 0;
        ++next_round;
      }
      next = slot_cost(s + 1, next_round, next_cluster);
    }
    // Slot s+1 on the other FB set (its same-set predecessor is further
    // back than s): its IN prefetches ahead of ST(s).
    const bool prefetch = has_next && next.back > 1;
    if (prefetch) run_in_early(s + 1, next);
    // No store for a slot that stores nothing (cycles_per_data_word > 0):
    // codegen emits no DMA op for an empty store batch, so the channel
    // never waits for exec(s) there.
    if (current.store.value() > 0) dma_t = std::max(dma_t, exec_done[s]) + current.store;
    if (has_next) {
      if (!prefetch) run_in_early(s + 1, next);
      if (next.late.value() > 0) run_in_late(s + 1, next);
    }
    current = next;
  }

  out.total = std::max(exec_done[n_slots - 1], dma_t);
  out.stall = out.total - out.compute;
  return out;
}

CostBreakdown predict_cost(const DataSchedule& schedule, const arch::M1Config& cfg,
                           const csched::ContextPlan& ctx_plan) {
  if (!schedule.feasible) {
    CostBreakdown out;
    out.feasible = false;
    out.infeasible_reason = schedule.infeasible_reason;
    return out;
  }
  return predict_cost(*schedule.sched, schedule.rf, schedule.round_plan, cfg, ctx_plan);
}

}  // namespace msys::dsched
