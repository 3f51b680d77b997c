// Contracts of the simulated-annealing schedule search:
//
//   1. never-worse: on every fuzz-corpus scenario, generated adversarial
//      case and Table-1 experiment where greedy CDS is feasible, the
//      annealed schedule's *predicted* cycles never exceed greedy's, and
//      neither do its *simulated* cycles — the improvement must be real
//      in the machine model, not just in the analytic cost;
//   2. determinism: the search result is byte-identical across pool
//      sizes 1/2/4 (and no pool at all) — islands never observe the
//      thread schedule;
//   3. quality: at the default budget the annealer strictly improves at
//      least three Table-1/synthetic rows (the reason the search exists);
//   4. cancellation degrades to the greedy baseline, deterministically;
//   5. the simulator cross-check never fires (sim_rejects == 0): the
//      cost model and the simulator agree on every island best;
//   6. the lemma behind checking island bests only at the merge: every
//      sampled skeleton that prices feasible packs into a schedule whose
//      predict_cost equals the price and which passes sim::cross_check.
#include "msys/search/anneal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "msys/appdsl/parser.hpp"
#include "msys/arch/m1.hpp"
#include "msys/codegen/program.hpp"
#include "msys/common/rng.hpp"
#include "msys/csched/context_plan.hpp"
#include "msys/engine/thread_pool.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/fuzzing/fuzzing.hpp"
#include "msys/search/space.hpp"
#include "msys/sim/cross_check.hpp"
#include "msys/sim/simulator.hpp"
#include "msys/workloads/experiments.hpp"
#include "msys/workloads/random.hpp"
#include "testing/fingerprint.hpp"
#include "testing/oracle.hpp"

namespace msys::search {
namespace {

namespace fs = std::filesystem;

/// One scenario.  The application owner (a ParsedExperiment for corpus
/// cases, a bare Application for workload cases) lives behind a
/// unique_ptr so the schedule's non-owning pointer stays valid across
/// vector growth and Case moves.
struct Case {
  std::string name;
  std::unique_ptr<appdsl::ParsedExperiment> experiment;
  std::unique_ptr<model::Application> app;
  std::unique_ptr<model::KernelSchedule> sched;
  arch::M1Config cfg;
};

void add_text_case(std::vector<Case>& cases, const std::string& name,
                   const std::string& text) {
  appdsl::ParseResult parsed = appdsl::parse_collect(text, name);
  if (!parsed.ok() || parsed.experiment->partition.empty()) return;
  auto experiment =
      std::make_unique<appdsl::ParsedExperiment>(std::move(*parsed.experiment));
  auto sched = std::make_unique<model::KernelSchedule>(experiment->schedule());
  const arch::M1Config cfg = experiment->cfg;
  cases.push_back(Case{name, std::move(experiment), nullptr, std::move(sched), cfg});
}

std::vector<Case> corpus_cases() {
  std::vector<Case> cases;
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(MSYS_FUZZ_CORPUS_DIR)) {
    if (entry.path().extension() == ".mapp") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& path : files) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    add_text_case(cases, path.filename().string(), text.str());
  }
  for (std::uint64_t seed = 1; seed <= 2 * fuzzing::kScenarioClasses; ++seed) {
    const fuzzing::FuzzCase c = fuzzing::make_case(seed);
    add_text_case(cases, c.name, c.text);
  }
  return cases;
}

std::vector<Case> table1_cases() {
  std::vector<Case> cases;
  for (const std::string& name : workloads::table1_experiment_names()) {
    workloads::Experiment exp = workloads::make_experiment(name);
    cases.push_back(Case{exp.name, nullptr, std::move(exp.app),
                         std::make_unique<model::KernelSchedule>(std::move(exp.sched)),
                         exp.cfg});
  }
  return cases;
}

std::vector<Case> empty_store_cases() {
  std::vector<Case> cases;
  for (const std::uint64_t seed : testing::kEmptyStoreAnnealSeeds) {
    workloads::RandomExperiment exp = workloads::make_random(testing::anneal_spec(seed));
    cases.push_back(Case{"anneal seed " + std::to_string(seed), nullptr, std::move(exp.app),
                         std::make_unique<model::KernelSchedule>(std::move(exp.sched)),
                         exp.cfg});
  }
  return cases;
}

/// Runs a feasible data schedule through codegen and the cycle-exact
/// simulator; returns the measured total.
std::uint64_t simulate(const dsched::DataSchedule& schedule, const arch::M1Config& cfg) {
  const csched::ContextPlan ctx_plan =
      csched::ContextPlan::build(*schedule.sched, cfg.cm_capacity_words);
  EXPECT_TRUE(ctx_plan.feasible());
  const codegen::ScheduleProgram program = codegen::generate(schedule, ctx_plan);
  sim::Simulator simulator(cfg, ctx_plan);
  sim::Simulator::Outcome outcome = simulator.try_run(program);
  EXPECT_TRUE(outcome.ok());
  return outcome.report->total.value();
}

std::uint64_t total_sim_rejects(const AnnealResult& result) {
  std::uint64_t rejects = 0;
  for (const IslandStats& island : result.islands) rejects += island.sim_rejects;
  return rejects;
}

TEST(Anneal, NeverWorseThanGreedyOverCorpus) {
  AnnealOptions options;
  options.islands = 2;
  options.budget = 48;
  std::size_t feasible = 0;
  for (const Case& c : corpus_cases()) {
    const extract::ScheduleAnalysis analysis(*c.sched, c.cfg.cross_set_reads);
    const AnnealResult result = anneal_schedule(analysis, c.cfg, options);
    EXPECT_EQ(total_sim_rejects(result), 0u) << c.name;
    if (!result.greedy.feasible) {
      // Greedy infeasible => the annealer returns it unchanged.
      EXPECT_FALSE(result.feasible()) << c.name;
      EXPECT_FALSE(result.improved) << c.name;
      continue;
    }
    ++feasible;
    ASSERT_TRUE(result.feasible()) << c.name;
    EXPECT_LE(result.annealed_cycles(), result.greedy_cycles()) << c.name;
    const std::uint64_t greedy_sim = simulate(result.greedy, c.cfg);
    const std::uint64_t annealed_sim = simulate(result.schedule, c.cfg);
    EXPECT_LE(annealed_sim, greedy_sim) << c.name;
    // The winner's prediction is simulator-exact (the cross-check ran).
    EXPECT_EQ(annealed_sim, result.annealed_cycles()) << c.name;
  }
  ASSERT_GE(feasible, 10u) << "corpus lost its feasible scenarios";
}

TEST(Anneal, NeverWorseThanGreedyOnTable1) {
  AnnealOptions options;  // default budget: the shipping configuration
  std::size_t improved = 0;
  for (const Case& c : table1_cases()) {
    const extract::ScheduleAnalysis analysis(*c.sched, c.cfg.cross_set_reads);
    const AnnealResult result = anneal_schedule(analysis, c.cfg, options);
    ASSERT_TRUE(result.greedy.feasible) << c.name;
    EXPECT_EQ(total_sim_rejects(result), 0u) << c.name;
    EXPECT_LE(result.annealed_cycles(), result.greedy_cycles()) << c.name;
    const std::uint64_t greedy_sim = simulate(result.greedy, c.cfg);
    const std::uint64_t annealed_sim = simulate(result.schedule, c.cfg);
    EXPECT_LE(annealed_sim, greedy_sim) << c.name;
    if (result.improved) ++improved;
  }
  // The acceptance bar: the default budget must beat greedy on at least
  // three of the paper's rows (tests/search/golden/anneal_quality.tsv
  // pins the margins).
  EXPECT_GE(improved, 3u);
}

TEST(Anneal, ByteIdenticalAcrossPoolSizes) {
  workloads::Experiment exp = workloads::make_experiment("ATR-FI**");
  const extract::ScheduleAnalysis analysis(exp.sched, exp.cfg.cross_set_reads);
  AnnealOptions options;
  options.budget = 96;

  struct Run {
    std::string fingerprint;
    std::uint64_t cycles;
    std::uint32_t winner;
    std::vector<IslandStats> islands;
  };
  auto run_with = [&](engine::ThreadPool* pool) {
    const AnnealResult result = anneal_schedule(analysis, exp.cfg, options, pool);
    EXPECT_TRUE(result.feasible());
    return Run{testing::schedule_fingerprint(result.schedule), result.annealed_cycles(),
               result.winner_island, result.islands};
  };

  const Run serial = run_with(nullptr);
  for (unsigned threads : {1u, 2u, 4u}) {
    engine::ThreadPool pool(threads);
    const Run parallel = run_with(&pool);
    EXPECT_EQ(parallel.fingerprint, serial.fingerprint) << threads << " threads";
    EXPECT_EQ(parallel.cycles, serial.cycles) << threads << " threads";
    EXPECT_EQ(parallel.winner, serial.winner) << threads << " threads";
    ASSERT_EQ(parallel.islands.size(), serial.islands.size());
    for (std::size_t i = 0; i < serial.islands.size(); ++i) {
      EXPECT_EQ(parallel.islands[i].accepted, serial.islands[i].accepted);
      EXPECT_EQ(parallel.islands[i].best_cycles, serial.islands[i].best_cycles);
      EXPECT_EQ(parallel.islands[i].plan_hits, serial.islands[i].plan_hits);
    }
  }
}

TEST(Anneal, SeedChangesTrajectoryNotContract) {
  workloads::Experiment exp = workloads::make_experiment("ATR-FI");
  const extract::ScheduleAnalysis analysis(exp.sched, exp.cfg.cross_set_reads);
  AnnealOptions options;
  options.budget = 64;
  for (std::uint64_t seed : {1, 2, 3}) {
    options.seed = seed;
    const AnnealResult result = anneal_schedule(analysis, exp.cfg, options);
    ASSERT_TRUE(result.feasible()) << "seed " << seed;
    EXPECT_LE(result.annealed_cycles(), result.greedy_cycles()) << "seed " << seed;
    // Same seed => same bytes (a second run leaks no state).
    const AnnealResult again = anneal_schedule(analysis, exp.cfg, options);
    EXPECT_EQ(testing::schedule_fingerprint(again.schedule),
              testing::schedule_fingerprint(result.schedule))
        << "seed " << seed;
  }
}

TEST(Anneal, CancellationReturnsGreedyDeterministically) {
  workloads::Experiment exp = workloads::make_experiment("ATR-SLD**");
  const extract::ScheduleAnalysis analysis(exp.sched, exp.cfg.cross_set_reads);

  // A token fired before the search starts cancels the greedy CDS pass
  // itself: the annealer mirrors CDS's structured cancellation (an
  // infeasible schedule, never a partial search result).
  CancelSource source;
  source.request_cancel();
  const AnnealResult result =
      anneal_schedule(analysis, exp.cfg, {}, nullptr, source.token());
  EXPECT_TRUE(result.cancelled);
  EXPECT_FALSE(result.improved);
  EXPECT_FALSE(result.feasible());
  EXPECT_EQ(testing::schedule_fingerprint(result.schedule),
            testing::schedule_fingerprint(result.greedy));

  // A token that never fires leaves the search untouched — and the
  // result byte-identical to a search with the null token (the cancel
  // plumbing itself must not perturb the trajectory).
  CancelSource idle;
  const AnnealResult armed =
      anneal_schedule(analysis, exp.cfg, {}, nullptr, idle.token());
  const AnnealResult unarmed = anneal_schedule(analysis, exp.cfg, {});
  EXPECT_FALSE(armed.cancelled);
  ASSERT_TRUE(armed.feasible());
  EXPECT_EQ(testing::schedule_fingerprint(armed.schedule),
            testing::schedule_fingerprint(unarmed.schedule));
  EXPECT_EQ(armed.annealed_cycles(), unarmed.annealed_cycles());
}

TEST(Anneal, RepartitionedWinnerCarriesItsSchedule) {
  // tracker repartitions at tiny budgets already (see the CLI smoke); the
  // winning DataSchedule must point at the AnnealResult-owned kernel
  // schedule, not at the caller's.
  workloads::RandomSpec spec;
  spec.seed = 19;
  spec.min_kernels = 6;
  spec.max_kernels = 10;
  spec.reuse_percent = 40;
  const workloads::RandomExperiment exp = workloads::make_random(spec);
  const extract::ScheduleAnalysis analysis(exp.sched, exp.cfg.cross_set_reads);
  AnnealOptions options;
  options.budget = 64;
  const AnnealResult result = anneal_schedule(analysis, exp.cfg, options);
  ASSERT_TRUE(result.feasible());
  if (result.schedule.sched != &exp.sched) {
    ASSERT_NE(result.owned_sched, nullptr);
    EXPECT_EQ(result.schedule.sched, result.owned_sched.get());
    // The repartitioned schedule still runs end-to-end.
    (void)simulate(result.schedule, exp.cfg);
  }
}

// Islands trust ShapeContext::price alone and the merge cross-checks only
// their bests, so this is the oracle's coverage of the candidates that
// never leave the search.  Per usable shape (every shape of a space of at
// most kShapes, else kShapes drawn), the greedy skeleton and up to
// kRandomSkeletons random ones (RF in [1, max_rf], a random subset of the
// retention candidates) that price feasible.
TEST(AnnealPricing, PriceMatchesTheSimulatorOnSampledSkeletons) {
  constexpr std::uint64_t kShapes = 64;
  constexpr int kRandomSkeletons = 3;
  std::vector<Case> cases = table1_cases();
  for (auto* more : {corpus_cases, empty_store_cases}) {
    for (Case& c : more()) cases.push_back(std::move(c));
  }
  Rng rng(7);
  std::size_t checked = 0;
  for (const Case& c : cases) {
    const extract::ScheduleAnalysis analysis(*c.sched, c.cfg.cross_set_reads);
    const std::vector<KernelId>& order = c.sched->flattened_order();
    const Shape own = shape_of(*c.sched);
    const std::uint64_t space = space_size(order.size());
    for (std::uint64_t s = 0; s < std::min(space, kShapes); ++s) {
      const Shape shape = shape_of_mask(space <= kShapes ? s : rng.uniform(0, space - 1),
                                        order.size());
      ShapeContext ctx = shape == own ? ShapeContext(analysis, c.cfg)
                                      : ShapeContext(c.sched->app(), order, shape, c.cfg);
      if (!ctx.usable) continue;
      std::vector<Skeleton> skeletons;
      if (const std::optional<dsched::DriverOptions> greedy = ctx.greedy()) {
        skeletons.push_back(Skeleton{shape, greedy->rf, greedy->retained});
      }
      for (int i = 0; i < kRandomSkeletons; ++i) {
        Skeleton sk{shape, static_cast<std::uint32_t>(rng.uniform(1, ctx.max_rf)), {}};
        for (const DataId d : ctx.candidate_ids) {
          if (rng.chance(1, 2)) sk.retained.insert(d);
        }
        skeletons.push_back(std::move(sk));
      }
      for (const Skeleton& sk : skeletons) {
        const std::optional<Cycles> price = ctx.price(sk.rf, sk.retained);
        if (!price) continue;
        const dsched::DataSchedule packed = ctx.pack(sk, "CDS+anneal");
        const dsched::CostBreakdown predicted =
            dsched::predict_cost(packed, c.cfg, ctx.context_plan());
        const sim::CrossCheck check =
            sim::cross_check(packed, predicted, *ctx.analysis, c.cfg, ctx.context_plan());
        ++checked;
        EXPECT_EQ(predicted.total.value(), price->value())
            << c.name << " shape of " << shape.size() << " clusters, RF " << sk.rf;
        EXPECT_TRUE(check.ok()) << c.name << " shape of " << shape.size() << " clusters, RF "
                                << sk.rf << ": " << check.why();
      }
    }
  }
  EXPECT_GE(checked, 5000u) << "the corpus lost its priced skeletons";
}

}  // namespace
}  // namespace msys::search
