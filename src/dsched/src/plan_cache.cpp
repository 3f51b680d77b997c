#include "msys/dsched/plan_cache.hpp"

#include <utility>

#include "msys/common/hash.hpp"
#include "msys/dsched/cost.hpp"
#include "msys/obs/metrics.hpp"

namespace msys::dsched {

namespace {

/// Process-wide mirrors so `msysc --stats` and the bench see memoization
/// behaviour without plumbing every PlanCache instance to the surface.
/// Fed in batches by ~PlanCache(), not per lookup.
struct PlanCacheMetrics {
  obs::Counter& hits = obs::counter("dsched.plan_cache.hits");
  obs::Counter& misses = obs::counter("dsched.plan_cache.misses");
  obs::Counter& evictions = obs::counter("dsched.plan_cache.evictions");

  static PlanCacheMetrics& get() {
    static PlanCacheMetrics metrics;
    return metrics;
  }
};

}  // namespace

PlanCache::~PlanCache() {
  if (stats_.hits > 0) PlanCacheMetrics::get().hits.add(stats_.hits);
  if (stats_.misses > 0) PlanCacheMetrics::get().misses.add(stats_.misses);
  if (stats_.evictions > 0) PlanCacheMetrics::get().evictions.add(stats_.evictions);
}

std::size_t PlanCache::KeyHash::operator()(const Key& k) const {
  WordHasher h;
  h.update_u64(k.rf);
  h.update_u64(k.release_at_last_use ? 1 : 0);
  hash_append(h, k.retained);
  return static_cast<std::size_t>(h.finalize());
}

PlanCache::Entry& PlanCache::entry(const DriverOptions& options) {
  Key key{.rf = options.rf,
          .release_at_last_use = options.release_at_last_use,
          .retained = options.retained};
  if (const auto it = memo_.find(key); it != memo_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.misses;
  Entry fresh;
  fresh.decision = decide_round(*analysis_, cfg_.fb_set_size, options, scratch_);
  if (memo_.size() >= capacity_) {
    ++stats_.evictions;
    overflow_ = std::move(fresh);  // also drops the previous occupant's price
    return overflow_;
  }
  return memo_.emplace(std::move(key), std::move(fresh)).first->second;
}

const RoundDecision& PlanCache::decide(const DriverOptions& options) {
  return entry(options).decision;
}

const csched::ContextPlan& PlanCache::context_plan() {
  if (!ctx_plan_) {
    ctx_plan_ = csched::ContextPlan::build(analysis_->sched(), cfg_.cm_capacity_words);
  }
  return *ctx_plan_;
}

std::optional<Cycles> PlanCache::price(const DriverOptions& options) {
  Entry& e = entry(options);
  if (!e.priced) {
    e.priced = true;
    const csched::ContextPlan& ctx = context_plan();
    if (e.decision.ok && ctx.feasible()) {
      e.total = predict_cost(analysis_->sched(), options.rf, e.decision.plan, cfg_, ctx).total;
    }
  }
  return e.total;
}

DataSchedule PlanCache::schedule(const DriverOptions& options, std::string scheduler_name) {
  return to_schedule(plan_round(*analysis_, cfg_.fb_set_size, options, scratch_),
                     std::move(scheduler_name), analysis_->sched(), options);
}

}  // namespace msys::dsched
