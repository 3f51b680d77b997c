#include "msys/search/anneal.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <utility>

#include "msys/common/error.hpp"
#include "msys/common/rng.hpp"
#include "msys/csched/context_plan.hpp"
#include "msys/obs/metrics.hpp"
#include "msys/obs/trace.hpp"
#include "msys/search/space.hpp"
#include "msys/sim/cross_check.hpp"

namespace msys::search {

namespace {

using dsched::PlanCache;
using extract::RetainedSet;
using extract::ScheduleAnalysis;

/// Geometric cooling from kT0 to kT1 over the budget; temperatures are
/// relative to the greedy baseline cost (acceptance of an uphill move of
/// delta cycles has probability exp(-delta / (T * greedy_cycles))).
constexpr double kT0 = 0.10;
constexpr double kT1 = 0.002;
/// Distinct partitions one island may derive contexts for; at the cap,
/// further partition moves are rejected (deterministically).
constexpr std::size_t kMaxPartitions = 64;

/// The context of `shape`, a composition of the caller's flattened kernel
/// order (a topological order, so any composition is dependency-valid);
/// the caller's own shape borrows its analysis.
std::unique_ptr<ShapeContext> context_of(const ScheduleAnalysis& analysis,
                                         const Shape& own_shape, const Shape& shape,
                                         const arch::M1Config& cfg) {
  if (shape == own_shape) return std::make_unique<ShapeContext>(analysis, cfg);
  return std::make_unique<ShapeContext>(analysis.app(), analysis.sched().flattened_order(),
                                        shape, cfg);
}

/// The simulator cross-check of an island best at the merge: it passes when
/// sim::cross_check passes on the packed schedule and its prediction is the
/// cycle count the island priced.  Returns that schedule and prediction
/// with the verdict, so a verified winner ships as checked.
struct Verified {
  dsched::DataSchedule schedule;
  dsched::CostBreakdown predicted;
  bool ok{false};
};

Verified verify_in_simulator(ShapeContext& ctx, const Skeleton& sk,
                             std::uint64_t predicted_cycles) {
  MSYS_TRACE_SPAN(span, "search.verify", "search");
  Verified out;
  out.schedule = ctx.pack(sk, "CDS+anneal");
  out.predicted = dsched::predict_cost(out.schedule, *ctx.cfg, ctx.context_plan());
  const sim::CrossCheck check =
      sim::cross_check(out.schedule, out.predicted, *ctx.analysis, *ctx.cfg, ctx.context_plan());
  out.ok = check.ok() && check.predicted.total.value() == predicted_cycles;
  return out;
}

/// Uniform double in [0, 1) from one SplitMix64 draw (53 mantissa bits).
double to_unit(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

enum class MoveKind { kRfStep, kRfJump, kToggle, kMerge, kSplit };

/// The moves applicable to a skeleton with their weights, at most one of
/// each kind: a fixed array, so choosing a move allocates nothing.
struct MoveMenu {
  std::array<std::pair<MoveKind, std::uint32_t>, 5> moves;
  std::size_t size{0};

  void add(MoveKind kind, std::uint32_t weight) { moves[size++] = {kind, weight}; }
  [[nodiscard]] auto begin() const { return moves.begin(); }
  [[nodiscard]] auto end() const { return moves.begin() + size; }
};

struct IslandOutcome {
  IslandStats stats;
  bool improved{false};
  bool cancelled{false};
  Skeleton best;
  std::uint64_t best_cycles{0};
};

/// Process-wide counter mirrors, fed in one batch per search (the
/// PlanCache flush pattern: no atomic RMW in the hot move loop).
struct SearchMetrics {
  obs::Counter& islands = obs::counter("search.islands");
  obs::Counter& moves = obs::counter("search.moves.proposed");
  obs::Counter& accepted = obs::counter("search.moves.accepted");
  obs::Counter& rejected = obs::counter("search.moves.rejected_infeasible");
  obs::Counter& verifications = obs::counter("search.sim_verifications");
  obs::Counter& sim_rejects = obs::counter("search.sim_rejects");
  obs::Counter& improvements = obs::counter("search.improvements");
  obs::Counter& partitions = obs::counter("search.partitions_explored");
  obs::Counter& partition_cap = obs::counter("search.partition_cap_rejects");

  static SearchMetrics& get() {
    static SearchMetrics metrics;
    return metrics;
  }
};

/// One island's whole world: builds partition contexts on demand and runs
/// the deterministic trajectory for its Rng stream.
class Island {
 public:
  Island(std::uint32_t index, const ScheduleAnalysis& analysis, const arch::M1Config& cfg,
         const AnnealOptions& options, const Skeleton& start,
         std::uint64_t greedy_cycles, const CancelToken& cancel)
      : index_(index),
        analysis_(analysis),
        cfg_(cfg),
        options_(options),
        start_(start),
        greedy_cycles_(greedy_cycles),
        cancel_(cancel),
        rng_(Rng(options.seed).split(index)) {}

  IslandOutcome run() {
    MSYS_TRACE_SPAN(span, "search.island", "search");
    IslandOutcome out;
    out.stats.island = index_;
    out.best = start_;
    out.best_cycles = greedy_cycles_;

    ShapeContext* ctx = get_context(start_.shape);
    if (ctx == nullptr || !ctx->usable) {
      // The greedy baseline planned on this very partition, so an unusable
      // start context cannot happen; bail defensively with "no change".
      finish_stats(out);
      return out;
    }

    Skeleton cur = start_;
    std::uint64_t cur_cycles = greedy_cycles_;
    if (const std::optional<Cycles> cycles = ctx->price(cur.rf, cur.retained)) {
      cur_cycles = cycles->value();
    }

    for (std::uint32_t step = 0; step < options_.budget; ++step) {
      if (cancel_.cancelled()) {
        out.cancelled = true;
        break;
      }
      // Geometric cooling — a pure function of (step, budget).
      const double frac =
          options_.budget > 1
              ? static_cast<double>(step) / static_cast<double>(options_.budget - 1)
              : 0.0;
      const double temp = kT0 * std::pow(kT1 / kT0, frac);

      const MoveMenu avail = available_moves(*ctx, cur);
      if (avail.size == 0) break;  // nothing left to mutate
      ++out.stats.moves;

      Skeleton cand = cur;
      ShapeContext* cand_ctx = ctx;
      if (!apply_move(pick_move(avail), cand, &cand_ctx, &out.stats)) {
        ++out.stats.rejected_infeasible;
        continue;
      }

      const std::optional<Cycles> priced = cand_ctx->price(cand.rf, cand.retained);
      if (!priced) {
        ++out.stats.rejected_infeasible;
        continue;
      }
      const std::uint64_t cand_cycles = priced->value();

      bool accept = cand_cycles <= cur_cycles;
      if (!accept) {
        const double delta = static_cast<double>(cand_cycles - cur_cycles);
        const double scale =
            static_cast<double>(greedy_cycles_) * std::max(temp, 1e-12);
        accept = to_unit(rng_.next_u64()) < std::exp(-delta / scale);
      }
      if (!accept) continue;
      ++out.stats.accepted;
      cur = std::move(cand);
      ctx = cand_ctx;
      cur_cycles = cand_cycles;

      if (cur_cycles < out.best_cycles) {
        // Priced, not simulated: the merge cross-checks the island best.
        out.best = cur;
        out.best_cycles = cur_cycles;
        ++out.stats.improvements;
      }
    }

    out.improved = out.best_cycles < greedy_cycles_;
    finish_stats(out);
    if (span.active()) {
      span.add_arg(obs::arg("island", std::uint64_t{index_}));
      span.add_arg(obs::arg("moves", std::uint64_t{out.stats.moves}));
      span.add_arg(obs::arg("accepted", std::uint64_t{out.stats.accepted}));
      span.add_arg(obs::arg("best_cycles", out.best_cycles));
    }
    return out;
  }

 private:
  void finish_stats(IslandOutcome& out) {
    out.stats.best_cycles = out.best_cycles;
    out.stats.partitions_explored = static_cast<std::uint32_t>(contexts_.size());
    for (const auto& entry : contexts_) {
      const PlanCache::Stats& ps = entry.second->plans->stats();
      out.stats.plan_hits += ps.hits;
      out.stats.plan_misses += ps.misses;
      out.stats.plan_evictions += ps.evictions;
    }
  }

  /// Moves applicable to `cur`, with fixed weights, in a fixed order (the
  /// weighted pick below consumes exactly one rng draw either way).
  [[nodiscard]] static MoveMenu available_moves(const ShapeContext& ctx, const Skeleton& cur) {
    MoveMenu avail;
    if (ctx.max_rf > 1) {
      avail.add(MoveKind::kRfStep, 3);
      avail.add(MoveKind::kRfJump, 2);
    }
    if (!ctx.candidate_ids.empty()) avail.add(MoveKind::kToggle, 4);
    if (cur.shape.size() > 1) avail.add(MoveKind::kMerge, 1);
    if (std::ranges::any_of(cur.shape, [](std::uint32_t size) { return size > 1; })) {
      avail.add(MoveKind::kSplit, 1);
    }
    return avail;
  }

  [[nodiscard]] MoveKind pick_move(const MoveMenu& avail) {
    std::uint32_t total = 0;
    for (const auto& [kind, weight] : avail) total += weight;
    std::uint64_t r = rng_.uniform(0, total - 1);
    for (const auto& [kind, weight] : avail) {
      if (r < weight) return kind;
      r -= weight;
    }
    return avail.moves[avail.size - 1].first;  // unreachable
  }

  /// Mutates `cand` in place; for partition moves rebinds *ctx to the new
  /// partition's context and re-clamps RF / re-masks the retained set.
  /// Returns false when the move is rejected (unusable or capped target
  /// partition); `stats` records why.
  bool apply_move(MoveKind kind, Skeleton& cand, ShapeContext** ctx,
                  IslandStats* stats) {
    switch (kind) {
      case MoveKind::kRfStep: {
        const bool up = rng_.chance(1, 2);
        cand.rf = up ? std::min(cand.rf + 1, (*ctx)->max_rf) : std::max(cand.rf, 2U) - 1;
        return true;
      }
      case MoveKind::kRfJump: {
        cand.rf = static_cast<std::uint32_t>(rng_.uniform(1, (*ctx)->max_rf));
        return true;
      }
      case MoveKind::kToggle: {
        const std::vector<DataId>& ids = (*ctx)->candidate_ids;
        const DataId d = ids[rng_.uniform(0, ids.size() - 1)];
        if (!cand.retained.erase(d)) cand.retained.insert(d);
        return true;
      }
      case MoveKind::kMerge: {
        const std::size_t b = rng_.uniform(0, cand.shape.size() - 2);
        cand.shape[b] += cand.shape[b + 1];
        cand.shape.erase(cand.shape.begin() + static_cast<std::ptrdiff_t>(b + 1));
        return rebind_partition(cand, ctx, stats);
      }
      case MoveKind::kSplit: {
        // The k-th cluster of more than one kernel, k drawn uniformly.
        const auto splittable = [](std::uint32_t size) { return size > 1; };
        const std::uint64_t k = rng_.uniform(
            0, static_cast<std::uint64_t>(std::ranges::count_if(cand.shape, splittable)) - 1);
        std::size_t i = 0;
        for (std::uint64_t seen = 0;; ++i) {
          if (splittable(cand.shape[i]) && seen++ == k) break;
        }
        const std::uint32_t left =
            static_cast<std::uint32_t>(rng_.uniform(1, cand.shape[i] - 1));
        const std::uint32_t right = cand.shape[i] - left;
        cand.shape[i] = left;
        cand.shape.insert(cand.shape.begin() + static_cast<std::ptrdiff_t>(i + 1), right);
        return rebind_partition(cand, ctx, stats);
      }
    }
    return false;  // unreachable
  }

  bool rebind_partition(Skeleton& cand, ShapeContext** ctx, IslandStats* stats) {
    ShapeContext* next = get_context(cand.shape);
    if (next == nullptr) {
      ++stats->partition_cap_rejects;
      return false;
    }
    if (!next->usable) return false;
    *ctx = next;
    cand.rf = std::min(std::max(cand.rf, 1U), next->max_rf);
    // The planning walk ignores retained ids that are not candidates, but
    // the validator (rightly) rejects them — and keeping stale ids in the
    // key would also fragment the plan memo.  Mask against the new
    // partition's candidate set.
    RetainedSet masked;
    for (const DataId d : cand.retained) {
      if (next->analysis->is_candidate(d)) masked.insert(d);
    }
    cand.retained = std::move(masked);
    return true;
  }

  /// Context for `shape`, building (and caching) it on first use; nullptr
  /// when the partition cap is reached.  Keyed by the shape vector itself:
  /// deterministic, collision-free.
  ShapeContext* get_context(const Shape& shape) {
    if (const auto it = contexts_.find(shape); it != contexts_.end()) {
      return it->second.get();
    }
    if (contexts_.size() >= kMaxPartitions) return nullptr;
    return contexts_.emplace(shape, context_of(analysis_, start_.shape, shape, cfg_))
        .first->second.get();
  }

  const std::uint32_t index_;
  const ScheduleAnalysis& analysis_;
  const arch::M1Config& cfg_;
  const AnnealOptions& options_;
  const Skeleton& start_;
  const std::uint64_t greedy_cycles_;
  const CancelToken& cancel_;
  Rng rng_;
  std::map<Shape, std::unique_ptr<ShapeContext>> contexts_;
};

}  // namespace

AnnealResult anneal_schedule(const ScheduleAnalysis& analysis, const arch::M1Config& cfg,
                             const AnnealOptions& options, engine::ThreadPool* pool,
                             const CancelToken& cancel) {
  MSYS_TRACE_SPAN(span, "search.anneal", "search");
  AnnealResult result;

  // Greedy CDS baseline: the floor the search must never fall below.
  const dsched::CompleteDataScheduler greedy_scheduler;
  result.greedy = greedy_scheduler.schedule(analysis, cfg, cancel);
  const csched::ContextPlan ctx_plan =
      csched::ContextPlan::build(analysis.sched(), cfg.cm_capacity_words);
  result.greedy_predicted = dsched::predict_cost(result.greedy, cfg, ctx_plan);
  result.schedule = result.greedy;
  result.predicted = result.greedy_predicted;
  result.cancelled = result.greedy.cancelled;
  if (!result.greedy.feasible || !result.greedy_predicted.feasible ||
      result.greedy.cancelled) {
    return result;  // nothing to improve on (or the budget is already gone)
  }

  const Skeleton start{shape_of(analysis.sched()), result.greedy.rf, result.greedy.retained};
  const std::uint64_t greedy_cycles = result.greedy_predicted.total.value();

  const std::uint32_t n_islands = std::max(options.islands, 1U);
  std::vector<IslandOutcome> outcomes(n_islands);

  // Each island is a pure function of (options, analysis, cfg, island
  // index); outcomes land at their island's slot, so the merged result is
  // independent of pool size and scheduling.
  engine::parallel_for(pool, n_islands, [&](std::size_t i) {
    Island island(static_cast<std::uint32_t>(i), analysis, cfg, options, start,
                  greedy_cycles, cancel);
    outcomes[i] = island.run();
  });

  result.cancelled = result.cancelled ||
                     std::ranges::any_of(outcomes, &IslandOutcome::cancelled);
  // Cancelled searches return the greedy baseline even when an island
  // already improved: how far each island got depends on wall-clock, and a
  // timing-dependent "best so far" would break the determinism contract.
  // Otherwise the improved islands are cross-checked in (best cycles,
  // island index) order, each on its context rebuilt on this thread (a pure
  // recompute of what the island planned); the first that passes wins, and
  // when none does the greedy floor stands.
  std::vector<IslandOutcome*> ranked;
  if (!result.cancelled) {
    for (IslandOutcome& out : outcomes) {
      if (out.improved) ranked.push_back(&out);
    }
  }
  std::ranges::stable_sort(ranked, {}, &IslandOutcome::best_cycles);
  for (IslandOutcome* out : ranked) {
    ++out->stats.sim_verifications;
    const std::unique_ptr<ShapeContext> ctx =
        context_of(analysis, start.shape, out->best.shape, cfg);
    MSYS_REQUIRE(ctx->usable, "the rebuilt island best's partition must plan as it did");
    Verified checked = verify_in_simulator(*ctx, out->best, out->best_cycles);
    if (!checked.ok) {
      ++out->stats.sim_rejects;
      continue;
    }
    result.schedule = std::move(checked.schedule);
    if (ctx->sched_owned != nullptr) {
      result.owned_sched = std::move(ctx->sched_owned);
      // pack() pointed schedule.sched at the context's schedule; keep that
      // pointer alive past the context by adopting ownership here.
      result.schedule.sched = result.owned_sched.get();
    }
    result.predicted = checked.predicted;
    result.improved = true;
    result.winner_island = out->stats.island;
    break;
  }

  result.islands.reserve(n_islands);
  SearchMetrics& metrics = SearchMetrics::get();
  metrics.islands.add(n_islands);
  for (const IslandOutcome& out : outcomes) {
    result.islands.push_back(out.stats);
    metrics.moves.add(out.stats.moves);
    metrics.accepted.add(out.stats.accepted);
    metrics.rejected.add(out.stats.rejected_infeasible);
    metrics.verifications.add(out.stats.sim_verifications);
    metrics.sim_rejects.add(out.stats.sim_rejects);
    metrics.improvements.add(out.stats.improvements);
    metrics.partitions.add(out.stats.partitions_explored);
    metrics.partition_cap.add(out.stats.partition_cap_rejects);
  }
  if (result.improved && span.active()) {
    span.add_arg(obs::arg("greedy_cycles", greedy_cycles));
    span.add_arg(obs::arg("annealed_cycles", result.annealed_cycles()));
    span.add_arg(obs::arg("winner_island", std::uint64_t{result.winner_island}));
  }
  return result;
}

}  // namespace msys::search
