#include "msys/dsched/schedulers.hpp"

#include <algorithm>

#include "msys/common/error.hpp"
#include "msys/dsched/plan_cache.hpp"
#include "msys/obs/metrics.hpp"
#include "msys/obs/trace.hpp"

namespace msys::dsched {

using extract::RetentionCandidate;
using extract::ScheduleAnalysis;

std::uint32_t compute_max_rf(const ScheduleAnalysis& analysis, const arch::M1Config& cfg,
                             DriverOptions base_options, const CancelToken& cancel) {
  PlanCache plans(analysis, cfg);
  return compute_max_rf(plans, std::move(base_options), cancel);
}

std::uint32_t compute_max_rf(PlanCache& plans, DriverOptions base_options,
                             const CancelToken& cancel) {
  const std::uint32_t max_rf = plans.analysis().app().total_iterations();
  if (max_rf == 0) return 0;
  auto feasible = [&](std::uint32_t rf) {
    base_options.rf = rf;
    return plans.decide(base_options).ok;
  };
  // RF feasibility is monotone: RF+1 keeps strictly more instances live at
  // every point of the walk than RF, so once a walk fails every larger RF
  // fails too (the linear scan this replaces stopped at the first failure
  // for the same reason; tests/dsched/rf_search_property_test.cpp pins the
  // equivalence over the fuzz corpus).  Exponential probing finds an
  // infeasible upper bound in O(log max_rf) walks and the binary search
  // pins the largest feasible RF in O(log max_rf) more — against the
  // seed's O(max_rf) walks per call.
  if (!feasible(1)) return 0;
  std::uint64_t lo = 1;                                    // known feasible
  std::uint64_t hi = static_cast<std::uint64_t>(max_rf) + 1;  // first known-bad
  for (std::uint64_t probe = 2; probe < hi; probe *= 2) {
    // Cancellation checkpoint: `lo` is always a *verified* feasible RF, so
    // abandoning the search here returns correct (merely suboptimal) data.
    if (cancel.cancelled()) return static_cast<std::uint32_t>(lo);
    if (feasible(static_cast<std::uint32_t>(probe))) {
      lo = probe;
    } else {
      hi = probe;
      break;
    }
  }
  while (hi - lo > 1) {
    if (cancel.cancelled()) return static_cast<std::uint32_t>(lo);
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (feasible(static_cast<std::uint32_t>(mid))) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return static_cast<std::uint32_t>(lo);
}

// Why one walk can decide a whole run of candidates.  A walk fits iff the
// live words never exceed the FB set at any allocation (why the decision
// walk is exact, alloc_driver.hpp).  Retaining one more object replaces
// its per-cluster copies in its own set by one copy live across its whole
// span — §4's full-occupancy charge in DS(C_c) ≤ FBS — and changes
// nothing else in either set, so the live words at every point of the
// walk can only grow: if K ∪ S fits, so does K ∪ S' for every S' ⊆ S.
// Greedy over c_i..c_n from a fitting kept set K therefore keeps the
// longest prefix c_i..c_{i+p-1} for which K ∪ prefix fits and rejects
// c_{i+p}: walk the whole suffix first (one walk when everything fits,
// the common case), else binary-search p between "K fits" and "the
// suffix does not", then go on from c_{i+p+1}.  Same decisions, O(log k)
// walks per rejection instead of one walk per candidate.
//
// Cross-set reads break the argument: retaining an object in one set also
// drops its reloads in the other set's clusters (Walk::reads_in_place),
// which can free space there.  That mode probes a window of one
// candidate, which is exactly the per-candidate greedy.
DriverOptions retain_at_rf(std::span<const RetentionCandidate> candidates,
                           DriverOptions options, bool monotone_fit, PlanCache& plans,
                           const CancelToken& cancel) {
  static obs::Counter& retention_kept = obs::counter("dsched.retention.kept");
  static obs::Counter& retention_rejected = obs::counter("dsched.retention.rejected");
  options.retained.clear();
  MSYS_REQUIRE(plans.decide(options).ok, "re-planning at a feasible RF must succeed");
  const std::uint64_t rf = options.rf;
  std::size_t next = 0;  // first undecided candidate
  while (next < candidates.size()) {
    // Checkpoint per probe window: the set kept so far already planned
    // feasibly, so breaking leaves `options` consistent; the caller's
    // checkpoint turns the firing into a cancelled result.
    if (cancel.cancelled()) break;
    const std::size_t width = monotone_fit ? candidates.size() - next : 1;
    // Grows or shrinks the probed prefix candidates[next, next + taken).
    std::size_t taken = 0;
    auto take = [&](std::size_t len) {
      for (; taken < len; ++taken) options.retained.insert(candidates[next + taken].data);
      for (; taken > len; --taken) options.retained.erase(candidates[next + taken - 1].data);
    };
    take(width);
    std::size_t fits = width;
    if (!plans.decide(options).ok) {
      std::size_t lo = 0;      // prefix known to fit (the kept set alone)
      std::size_t hi = width;  // prefix known not to fit
      while (hi - lo > 1) {
        const std::size_t mid = lo + (hi - lo) / 2;
        take(mid);
        if (plans.decide(options).ok) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      fits = lo;
      take(fits);
    }
    retention_kept.add(fits);
    for (std::size_t i = next; i < next + fits; ++i) {
      MSYS_TRACE_INSTANT("dsched.retain.keep", "dsched",
                         obs::arg("data", std::uint64_t{candidates[i].data.index()}),
                         obs::arg("tf", candidates[i].tf), obs::arg("rf", rf));
    }
    next += fits;
    if (fits < width) {
      retention_rejected.add();
      MSYS_TRACE_INSTANT("dsched.retain.reject", "dsched",
                         obs::arg("data", std::uint64_t{candidates[next].data.index()}),
                         obs::arg("tf", candidates[next].tf), obs::arg("rf", rf));
      ++next;
    }
  }
  return options;
}

namespace {

/// The paper raises RF as high as the FB allows because each step divides
/// the context reloads.  When the CM is large enough to make contexts
/// persistent there is nothing to amortise and a high RF only lengthens
/// the serial prologue, so instead of blindly maximising we evaluate the
/// predicted cost of every feasible RF and keep the cheapest (ties go to
/// the larger RF, the paper's preference).
std::uint32_t pick_rf_by_cost(DriverOptions options, std::uint32_t max_feasible_rf,
                              PlanCache& plans, const CancelToken& cancel = {}) {
  MSYS_TRACE_SPAN(span, "dsched.pick_rf", "dsched");
  static obs::Counter& rf_evaluated = obs::counter("dsched.rf.candidates_evaluated");
  if (!plans.context_plan().feasible()) return max_feasible_rf;
  std::uint32_t best_rf = 0;
  Cycles best_cost = Cycles::max();
  for (std::uint32_t rf = 1; rf <= max_feasible_rf; ++rf) {
    // Checkpoint per candidate: every RF already costed is usable, so the
    // scan degrades to "best of what was evaluated".
    if (cancel.cancelled()) break;
    options.rf = rf;
    const std::optional<Cycles> cost = plans.price(options);
    MSYS_REQUIRE(cost.has_value(), "RF below the feasible maximum must plan");
    rf_evaluated.add();
    if (best_rf == 0 || *cost <= best_cost) {
      best_cost = *cost;
      best_rf = rf;
    }
  }
  const std::uint32_t chosen = best_rf == 0 ? max_feasible_rf : best_rf;
  if (span.active()) {
    span.add_arg(obs::arg("max_feasible_rf", std::uint64_t{max_feasible_rf}));
    span.add_arg(obs::arg("chosen_rf", std::uint64_t{chosen}));
  }
  return chosen;
}

/// The decision step DS and CDS share, on the caller's memo `plans`: the
/// max-RF search, then the RF pick and §4 retention of `candidates` (in
/// order; DS passes none) at that RF — or, `joint`, retention at every RF,
/// keeping the cheapest.  nullopt when even RF = 1 does not fit; partial if
/// `cancel` fires.
std::optional<DriverOptions> decide_rf_and_retention(
    std::span<const RetentionCandidate> candidates, bool joint, PlanCache& plans,
    const CancelToken& cancel) {
  DriverOptions options;
  options.release_at_last_use = true;
  const std::uint32_t max_rf = compute_max_rf(plans, options, cancel);
  if (max_rf == 0) return std::nullopt;
  const bool monotone_fit = !plans.analysis().cross_set_reads();
  if (!joint) {
    // §4: secure the cheapest RF first (context-transfer minimisation
    // dominates), then spend remaining FB space on retention.
    options.rf = pick_rf_by_cost(options, max_rf, plans, cancel);
    return retain_at_rf(candidates, std::move(options), monotone_fit, plans, cancel);
  }

  // Extension: jointly pick (RF, retained set) by predicted cost.
  std::optional<DriverOptions> best;
  Cycles best_cost = Cycles::max();
  for (std::uint32_t rf = 1; rf <= max_rf; ++rf) {
    if (cancel.cancelled()) break;
    options.rf = rf;
    DriverOptions opt = retain_at_rf(candidates, options, monotone_fit, plans, cancel);
    if (!plans.context_plan().feasible()) {
      // No cost model available: fall back to the paper ordering (largest
      // RF wins) by keeping the last feasible candidate.
      best = std::move(opt);
      continue;
    }
    const std::optional<Cycles> cost = plans.price(opt);
    if (cost && (!best || *cost <= best_cost)) {
      best_cost = *cost;
      best = std::move(opt);
    }
  }
  MSYS_REQUIRE(best.has_value() || cancel.cancelled(), "at least RF=1 must produce a schedule");
  return best;
}

/// The schedule of the options DS or CDS decided on `plans`, or why there
/// is none: the reason of the failed RF-1 walk, a memo hit that names the
/// cluster that does not fit.
DataSchedule decided_schedule(const std::string& name, PlanCache& plans,
                              const std::optional<DriverOptions>& options,
                              const CancelToken& cancel) {
  const model::KernelSchedule& sched = plans.analysis().sched();
  if (cancel.cancelled()) return cancelled_schedule(name, sched, cancel.reason());
  if (!options) return infeasible(name, sched, plans.decide(DriverOptions{}).fail_reason);
  return plans.schedule(*options, name);
}

}  // namespace

DataSchedule DataSchedulerBase::schedule(const ScheduleAnalysis& analysis,
                                         const arch::M1Config& cfg,
                                         const CancelToken& cancel) const {
  PlanCache plans(analysis, cfg);
  return schedule(plans, cancel);
}

DataSchedule BasicScheduler::schedule(PlanCache& plans, const CancelToken& cancel) const {
  MSYS_TRACE_SPAN(span, "dsched.basic", "dsched");
  static obs::Counter& runs = obs::counter("dsched.runs.basic");
  runs.add();
  const model::KernelSchedule& sched = plans.analysis().sched();
  if (cancel.cancelled()) return cancelled_schedule(name(), sched, cancel.reason());
  DriverOptions options;
  options.rf = 1;
  options.release_at_last_use = false;  // no replacement within a cluster
  const RoundDecision& decision = plans.decide(options);
  if (!decision.ok) return infeasible(name(), sched, decision.fail_reason);
  return plans.schedule(options, name());
}

DataSchedule DataScheduler::schedule(PlanCache& plans, const CancelToken& cancel) const {
  MSYS_TRACE_SPAN(span, "dsched.ds", "dsched");
  static obs::Counter& runs = obs::counter("dsched.runs.ds");
  runs.add();
  if (cancel.cancelled()) {
    return cancelled_schedule(name(), plans.analysis().sched(), cancel.reason());
  }
  DataSchedule out = decided_schedule(name(), plans,
                                      decide_rf_and_retention({}, false, plans, cancel), cancel);
  if (span.active() && out.feasible) span.add_arg(obs::arg("rf", std::uint64_t{out.rf}));
  return out;
}

std::optional<DriverOptions> CompleteDataScheduler::decide(PlanCache& plans,
                                                           const CancelToken& cancel) const {
  const ScheduleAnalysis& analysis = plans.analysis();
  // Rank the retention candidates.
  std::vector<RetentionCandidate> candidates = analysis.retention_candidates();
  switch (options_.ranking) {
    case Options::Ranking::kTimeFactor:
      break;  // already sorted by descending TF
    case Options::Ranking::kDeclarationOrder:
      std::sort(candidates.begin(), candidates.end(),
                [](const RetentionCandidate& a, const RetentionCandidate& b) {
                  return a.data < b.data;
                });
      break;
    case Options::Ranking::kSizeFirst:
      std::sort(candidates.begin(), candidates.end(),
                [&](const RetentionCandidate& a, const RetentionCandidate& b) {
                  const SizeWords sa = analysis.app().data(a.data).size;
                  const SizeWords sb = analysis.app().data(b.data).size;
                  if (sa != sb) return sa > sb;
                  return a.data < b.data;
                });
      break;
    case Options::Ranking::kDensity:
      // Words saved per word of FB space occupied == transfers_avoided.
      std::sort(candidates.begin(), candidates.end(),
                [](const RetentionCandidate& a, const RetentionCandidate& b) {
                  if (a.transfers_avoided != b.transfers_avoided) {
                    return a.transfers_avoided > b.transfers_avoided;
                  }
                  if (a.tf != b.tf) return a.tf > b.tf;
                  return a.data < b.data;
                });
      break;
  }
  return decide_rf_and_retention(candidates, options_.joint_rf_retention, plans, cancel);
}

DataSchedule CompleteDataScheduler::schedule(PlanCache& plans, const CancelToken& cancel) const {
  MSYS_TRACE_SPAN(span, "dsched.cds", "dsched");
  static obs::Counter& runs = obs::counter("dsched.runs.cds");
  runs.add();
  if (cancel.cancelled()) {
    return cancelled_schedule(name(), plans.analysis().sched(), cancel.reason());
  }
  return decided_schedule(name(), plans, decide(plans, cancel), cancel);
}

std::vector<std::unique_ptr<DataSchedulerBase>> all_schedulers() {
  std::vector<std::unique_ptr<DataSchedulerBase>> out;
  out.push_back(std::make_unique<BasicScheduler>());
  out.push_back(std::make_unique<DataScheduler>());
  out.push_back(std::make_unique<CompleteDataScheduler>());
  return out;
}

}  // namespace msys::dsched
