// anneal: simulated-annealing search above greedy CDS.
//
// The only workload for the search layer and its island fan-out, and the
// one that re-plans through PlanCache far more than a greedy compile does.
// One closed-loop client runs anneal_schedule at budget 256 with 4 islands
// on a 2-thread pool over the Table-1 rows plus seeded random apps.
//
// The random apps are drawn by the run seed from a generator-seed range
// screened with that same search; the seeds in kSimRejecting make the
// annealer reject a candidate in the simulator cross-check (a cost-model
// divergence) and are left out, so a sim_reject in a run is a new one.
#include <optional>
#include <set>
#include <utility>

#include "bench.hpp"
#include "msys/engine/thread_pool.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/search/anneal.hpp"
#include "msys/workloads/experiments.hpp"
#include "msys/workloads/random.hpp"

namespace perfbench {
namespace {

using namespace msys;

constexpr std::size_t kRandomApps = 100;
constexpr std::uint64_t kRandomLo = 1, kRandomHi = 500;
const std::set<std::uint64_t> kSimRejecting = {29,  43,  64,  68,  83,  97,  113, 163,
                                               165, 175, 212, 221, 241, 303, 312, 349,
                                               369, 378, 402, 414, 422, 430, 454};

workloads::RandomSpec random_spec(std::uint64_t seed) {
  workloads::RandomSpec spec;
  spec.seed = seed;
  spec.min_kernels = 6;
  spec.max_kernels = 10;
  spec.reuse_percent = 40;
  return spec;
}

struct Item {
  std::string name;
  std::unique_ptr<model::Application> app;
  std::unique_ptr<model::KernelSchedule> sched;
  arch::M1Config cfg;
  std::unique_ptr<extract::ScheduleAnalysis> analysis;
  /// (greedy, annealed) cycles from the item's first search.
  std::optional<std::pair<std::uint64_t, std::uint64_t>> reference;
};

class Anneal final : public Workload {
 public:
  Anneal() : pool_(2) {}

  const char* name() const override { return "anneal"; }
  double tail_percentile() const override { return 0.9; }

  void setup(std::uint64_t seed) override {
    items_.clear();
    for (const std::string& row : workloads::table1_experiment_names()) {
      workloads::Experiment exp = workloads::make_experiment(row);
      add("table1:" + row, std::move(exp.app), std::move(exp.sched), exp.cfg);
    }
    for (const std::uint64_t s :
         draw_seeds(seed, random_spec(0), kRandomLo, kRandomHi, kSimRejecting, kRandomApps)) {
      workloads::RandomExperiment exp = workloads::make_random(random_spec(s));
      add("random:" + std::to_string(s), std::move(exp.app), std::move(exp.sched), exp.cfg);
    }
  }

  Measurement measure(double seconds, Tally& tally, SpeedReference& speed) override {
    Measurement m;
    m.wall_s = passes(
        seconds,
        [&](Item& item) {
          const auto t0 = Clock::now();
          const search::AnnealResult r = search(item);
          m.add(t0, Clock::now());
          check(item, r, tally);
        },
        &speed);
    m.output_cycles = output_cycles_;
    return m;
  }

  TracedSummary trace(double seconds, Tally& tally, Metrics& layers) override {
    std::uint64_t moves = 0, accepted = 0, plan_hits = 0, plan_misses = 0;
    const double wall_a = passes(seconds * 0.6, [&](Item& item) {
      const search::AnnealResult r = search(item);
      check(item, r, tally);
      for (const search::IslandStats& s : r.islands) {
        moves += s.moves;
        accepted += s.accepted;
        plan_hits += s.plan_hits;
        plan_misses += s.plan_misses;
      }
    });
    // Tracing overhead: each input searched untraced and traced, back to
    // back, alternating which goes first.
    double untraced_us = 0, traced_us = 0;
    std::uint64_t pairs = 0;
    SpanCollector spans;
    passes(seconds * 0.4, [&](Item& item) {
      auto search_once = [&] {
        const auto t0 = Clock::now();
        const search::AnnealResult r = search(item);
        const double us = us_between(t0, Clock::now());
        check(item, r, tally);
        return us;
      };
      const bool traced_first = pairs++ % 2 == 1;
      if (!traced_first) untraced_us += search_once();
      spans.record([&] { traced_us += search_once(); });
      if (traced_first) untraced_us += search_once();
    });

    layers["search.moves_per_s"] = {static_cast<double>(moves) / wall_a, "1/s"};
    layers["search.accept_ratio"] = {ratio(accepted, moves), "ratio"};
    layers["search.plan_cache_hit_ratio"] = {ratio(plan_hits, plan_hits + plan_misses),
                                             "ratio"};
    layers["search.recost_us"] = {spans["search.recost"].mean_us(), "us"};
    layers["search.recost_self_us"] = {spans["search.recost"].self_mean_us(), "us"};
    layers["search.verify_us"] = {spans["search.verify"].mean_us(), "us"};
    layers["search.verify_self_us"] = {spans["search.verify"].self_mean_us(), "us"};

    TracedSummary s;
    s.stage_coverage = ratio(spans["search.anneal"].total_us, traced_us);
    s.trace_overhead_pct = 100.0 * (traced_us / untraced_us - 1.0);
    return s;
  }

 private:
  void add(std::string name, std::unique_ptr<model::Application> app,
           model::KernelSchedule sched, const arch::M1Config& cfg) {
    Item item;
    item.name = std::move(name);
    item.app = std::move(app);
    item.sched = std::make_unique<model::KernelSchedule>(std::move(sched));
    item.cfg = cfg;
    item.analysis =
        std::make_unique<extract::ScheduleAnalysis>(*item.sched, cfg.cross_set_reads);
    items_.push_back(std::move(item));
  }

  search::AnnealResult search(const Item& item) {
    search::AnnealOptions options;
    options.budget = 256;
    options.islands = 4;
    return search::anneal_schedule(*item.analysis, item.cfg, options, &pool_);
  }

  /// run_passes over the inputs; the fingerprint and output_cycles are
  /// taken once every input has been searched.
  template <class Fn>
  double passes(double seconds, Fn&& fn, SpeedReference* speed = nullptr) {
    return run_passes(
        seconds, items_.size(), [&](std::size_t i) { fn(items_[i]); },
        [&](std::size_t pass) {
          if (pass != 1) return;
          fingerprint_ = {};
          output_cycles_ = 0;
          for (const Item& item : items_) {
            fingerprint_.add(item.name);
            fingerprint_.add(item.reference->first);
            fingerprint_.add(item.reference->second);
            output_cycles_ += item.reference->second;
          }
        },
        speed);
  }

  /// Counts the search and checks it against the never-worse contract
  /// and the item's first result.
  void check(Item& item, const search::AnnealResult& r, Tally& tally) {
    std::uint32_t sim_rejects = 0;
    for (const search::IslandStats& s : r.islands) sim_rejects += s.sim_rejects;
    const bool ok = r.feasible() && !r.cancelled && sim_rejects == 0;
    tally.record(item.name, ok ? Verdict::kOk : Verdict::kFailed);
    if (r.feasible() && r.annealed_cycles() > r.greedy_cycles()) {
      problem(item.name + ": annealed schedule is worse than greedy");
    }
    const std::pair<std::uint64_t, std::uint64_t> got{r.greedy_cycles(), r.annealed_cycles()};
    if (!item.reference) {
      item.reference = got;
    } else if (*item.reference != got) {
      problem(item.name + ": (greedy, annealed) cycles changed between searches");
    }
  }

  engine::ThreadPool pool_;
  std::vector<Item> items_;
  std::uint64_t output_cycles_{0};
};

}  // namespace

std::unique_ptr<Workload> make_anneal() { return std::make_unique<Anneal>(); }

}  // namespace perfbench
