// Differential suite: dsched::predict_cost, which prices each cluster's
// round plan once and walks the double-buffering weave in place, against
// the per-slot model it replaced (testing/cost_reference.hpp).  Every
// CostBreakdown field must agree, through both overloads (the RoundPlan one
// on the walk's plan and the DataSchedule one, via to_schedule).
//
// Inputs: the Table-1 rows and 1,200 seeded random workloads in four
// shapes (2-12 iterations, 8-32 iterations, singleton clusters, FB sets at
// half the generous size), each on its own CM and on the CM sizes that put
// it in the persistent, per-slot-overlapped and per-slot-serial context
// regimes.  Every RF from 1 to compute_max_rf is walked with an empty, an
// all-candidate and a random retained set.  Hand-built cases pin the weave
// shapes the random family reaches only by chance: one cluster (its
// same-set predecessor is slot s-1), two clusters each alone on its set,
// three clusters (the first shares set A with the last), a single round
// (RF == N) and a short last round (N % RF != 0).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "msys/common/rng.hpp"
#include "msys/csched/context_plan.hpp"
#include "msys/dsched/alloc_driver.hpp"
#include "msys/dsched/cost.hpp"
#include "msys/dsched/schedulers.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/workloads/experiments.hpp"
#include "msys/workloads/random.hpp"
#include "testing/apps.hpp"
#include "testing/cost_reference.hpp"

namespace msys::dsched {
namespace {

/// Names every field on which `got` and `want` differ, with both values
/// ("" when they agree).
std::string field_diff(const CostBreakdown& got, const CostBreakdown& want) {
  std::ostringstream out;
  auto field = [&](const char* name, const auto& a, const auto& b) {
    if (a != b) out << ' ' << name << ": " << a << " vs reference " << b << ';';
  };
  field("feasible", got.feasible, want.feasible);
  field("infeasible_reason", got.infeasible_reason, want.infeasible_reason);
  field("total", got.total.value(), want.total.value());
  field("compute", got.compute.value(), want.compute.value());
  field("stall", got.stall.value(), want.stall.value());
  field("dma_busy", got.dma_busy.value(), want.dma_busy.value());
  field("data_words_loaded", got.data_words_loaded, want.data_words_loaded);
  field("data_words_stored", got.data_words_stored, want.data_words_stored);
  field("context_words", got.context_words, want.context_words);
  field("dma_requests", got.dma_requests, want.dma_requests);
  return out.str();
}

/// What the priced walks covered, so a change to the generators cannot
/// quietly hollow the suite out.
struct Coverage {
  std::uint64_t walks{0};       // successful walks, each priced on every CM
  std::uint64_t short_last{0};  // ... with a shorter last round (N % RF != 0)
  std::uint64_t one_round{0};   // ... with RF == N
  std::uint64_t regime[3]{};    // feasible context plans priced, by regime
  std::uint64_t mismatches{0};
};

/// The input's own CM plus the sizes that put `sched` into each context
/// regime its shape allows: every cluster resident (persistent), any two
/// adjacent clusters (per-slot overlap) and the largest single cluster
/// (per-slot serial).
std::vector<std::uint32_t> cm_sizes(const model::KernelSchedule& sched, std::uint32_t own) {
  const auto n = static_cast<std::uint32_t>(sched.cluster_count());
  std::uint32_t total = 0, max_cluster = 0, max_pair = 0;
  for (std::uint32_t c = 0; c < n; ++c) {
    const std::uint32_t words = sched.cluster_context_words(ClusterId{c});
    total += words;
    max_cluster = std::max(max_cluster, words);
    if (n > 1) {
      max_pair = std::max(words + sched.cluster_context_words(ClusterId{(c + 1) % n}), max_pair);
    }
  }
  return {own, total, std::max(max_pair, max_cluster), max_cluster};
}

/// Prices every successful walk at RF 1..compute_max_rf (empty, every
/// candidate and a random retained set) on every CM of cm_sizes() with
/// both models and both overloads.
void expect_matches_reference(const std::string& name, const model::KernelSchedule& sched,
                              const arch::M1Config& cfg, std::uint64_t seed, Coverage& cov) {
  const extract::ScheduleAnalysis analysis(sched, cfg.cross_set_reads);
  const std::uint32_t max_rf = compute_max_rf(analysis, cfg, DriverOptions{});
  const std::uint32_t n_iters = sched.app().total_iterations();

  std::vector<csched::ContextPlan> ctx_plans;
  for (std::uint32_t cm : cm_sizes(sched, cfg.cm_capacity_words)) {
    ctx_plans.push_back(csched::ContextPlan::build(sched, cm));
  }

  extract::RetainedSet all, random;
  Rng rng(seed);
  for (const extract::RetentionCandidate& cand : analysis.retention_candidates()) {
    all.insert(cand.data);
    if (rng.chance(1, 2)) random.insert(cand.data);
  }
  const std::pair<const char*, const extract::RetainedSet*> retained_sets[] = {
      {"empty", nullptr}, {"all", &all}, {"random", &random}};

  PlanScratch scratch;
  for (std::uint32_t rf = 1; rf <= max_rf; ++rf) {
    for (const auto& [retained_name, retained] : retained_sets) {
      DriverOptions options;
      options.rf = rf;
      if (retained != nullptr) options.retained = *retained;
      const DriverResult walk = plan_round(analysis, cfg.fb_set_size, options, scratch);
      if (!walk.ok) continue;
      const DataSchedule schedule = to_schedule(DriverResult(walk), "CDS", sched, options);
      ++cov.walks;
      if (n_iters % rf != 0) ++cov.short_last;
      if (rf == n_iters) ++cov.one_round;

      for (const csched::ContextPlan& ctx_plan : ctx_plans) {
        if (ctx_plan.feasible()) ++cov.regime[static_cast<int>(ctx_plan.regime())];
        const CostBreakdown reference =
            testing::cost_reference::predict_cost(sched, rf, walk.plan, cfg, ctx_plan);
        const std::string by_walk =
            field_diff(predict_cost(sched, rf, walk.plan, cfg, ctx_plan), reference);
        const std::string by_schedule =
            field_diff(predict_cost(schedule, cfg, ctx_plan), reference);
        if (by_walk.empty() && by_schedule.empty()) continue;
        ++cov.mismatches;
        ADD_FAILURE() << name << " rf=" << rf << " retained=" << retained_name
                      << " regime=" << csched::to_string(ctx_plan.regime())
                      << "\n  walk overload:" << by_walk
                      << "\n  schedule overload:" << by_schedule;
        if (cov.mismatches >= 5) return;
      }
    }
  }
}

workloads::RandomSpec random_shape(std::uint64_t seed) {
  workloads::RandomSpec spec;
  spec.seed = seed;
  switch (seed % 4) {
    case 0: break;  // 2-12 iterations
    case 1:
      spec.min_iterations = 8;
      spec.max_iterations = 32;
      break;
    case 2:
      spec.min_cluster_size = 1;
      spec.max_cluster_size = 1;
      break;
    case 3: spec.fb_scale_percent = 50; break;
  }
  return spec;
}

TEST(CostReference, Table1RowsMatchPerSlotModel) {
  Coverage cov;
  for (const std::string& name : workloads::table1_experiment_names()) {
    const workloads::Experiment exp = workloads::make_experiment(name);
    expect_matches_reference(name, exp.sched, exp.cfg, 1, cov);
  }
  EXPECT_EQ(cov.mismatches, 0u);
  EXPECT_GE(cov.walks, 12u);
}

TEST(CostReference, RandomWorkloadsMatchPerSlotModel) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 1200 && cov.mismatches == 0; ++seed) {
    const workloads::RandomExperiment exp = workloads::make_random(random_shape(seed));
    expect_matches_reference("random seed " + std::to_string(seed), exp.sched, exp.cfg, seed,
                             cov);
  }
  EXPECT_EQ(cov.mismatches, 0u);
  EXPECT_GE(cov.walks, 5000u);
  EXPECT_GE(cov.short_last, 1000u);
  EXPECT_GE(cov.one_round, 100u);
  for (const std::uint64_t priced : cov.regime) EXPECT_GE(priced, 1000u);
}

/// One cluster {k1, k2}: every slot's same-set predecessor is slot s-1.
/// Its contexts are all the contexts there are, so the only feasible
/// regime is the persistent one (the s-2 CM guard needs two clusters).
TEST(CostReference, OneClusterMatchesPerSlotModel) {
  model::ApplicationBuilder b("one-cluster", 7);
  const DataId in = b.external_input("in", SizeWords{60});
  const KernelId k1 = b.kernel("k1", 40, Cycles{90}, {in});
  const DataId t = b.output(k1, "t", SizeWords{30});
  const KernelId k2 = b.kernel("k2", 24, Cycles{70}, {t});
  b.output(k2, "r", SizeWords{20}, true);
  const model::Application app = std::move(b).build();
  const model::KernelSchedule sched = model::KernelSchedule::from_partition(app, {{k1, k2}});

  Coverage cov;
  expect_matches_reference("one-cluster", sched, testing::test_cfg(), 1, cov);
  EXPECT_EQ(cov.mismatches, 0u);
  EXPECT_GT(cov.one_round, 0u);
  EXPECT_GT(cov.short_last, 0u);
  EXPECT_GT(cov.regime[static_cast<int>(csched::ContextRegime::kPersistent)], 0u);
}

/// Two clusters, each alone on its FB set: the same-set predecessor is a
/// whole round back (s-2, which is also the CM's two-slot guard).  Their
/// adjacent pair is every context, so per-slot overlap is out of reach.
TEST(CostReference, ClustersAloneOnTheirSetsMatchPerSlotModel) {
  const testing::TwoClusterApp t = testing::TwoClusterApp::make(/*iterations=*/7);
  Coverage cov;
  expect_matches_reference("two-cluster", t.sched, testing::test_cfg(4096), 1, cov);
  EXPECT_EQ(cov.mismatches, 0u);
  EXPECT_GT(cov.one_round, 0u);
  EXPECT_GT(cov.short_last, 0u);
  EXPECT_GT(cov.regime[static_cast<int>(csched::ContextRegime::kPersistent)], 0u);
  EXPECT_GT(cov.regime[static_cast<int>(csched::ContextRegime::kPerSlotSerial)], 0u);
}

/// Three clusters chained through final results, so clusters 1 and 2 have
/// late loads: cluster 0 shares set A with cluster 2 (the previous slot),
/// cluster 1 is alone on set B.
TEST(CostReference, LateLoadChainMatchesPerSlotModel) {
  model::ApplicationBuilder b("chain", 5);
  std::vector<KernelId> ks;
  DataId prev = b.external_input("in0", SizeWords{50});
  for (std::uint32_t i = 1; i <= 3; ++i) {
    const KernelId k = b.kernel("k" + std::to_string(i), 16 * i, Cycles{80u * i}, {prev});
    b.add_input(k, b.external_input("in" + std::to_string(i), SizeWords{20u * i}));
    prev = b.output(k, "r" + std::to_string(i), SizeWords{30}, true);
    ks.push_back(k);
  }
  const model::Application app = std::move(b).build();
  const model::KernelSchedule sched =
      model::KernelSchedule::from_partition(app, {{ks[0]}, {ks[1]}, {ks[2]}});

  Coverage cov;
  expect_matches_reference("chain", sched, testing::test_cfg(), 1, cov);
  EXPECT_EQ(cov.mismatches, 0u);
  EXPECT_GT(cov.one_round, 0u);
  EXPECT_GT(cov.short_last, 0u);
  for (const std::uint64_t priced : cov.regime) EXPECT_GT(priced, 0u);
}

}  // namespace
}  // namespace msys::dsched
