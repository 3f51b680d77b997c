// cold-compile: every job misses, no simulator work.
//
// Inputs are distinct seeded .mapp texts — the engine_throughput RandomSpec
// family (8-14 kernels, 8-32 iterations, 60% reuse, 3 shared inputs), a
// quarter of them at fb_scale_percent 50 so the fallback ladder runs to
// its lower rungs and to infeasible — plus the 12 Table-1 rows.  One
// closed-loop client runs parse -> make_input -> get_or_compile(kFallback)
// on a fresh memory-only ScheduleCache per pass over the corpus.
#include <optional>

#include "bench.hpp"
#include "msys/appdsl/parser.hpp"
#include "msys/csched/context_plan.hpp"
#include "msys/dsched/cost.hpp"
#include "msys/dsched/fallback.hpp"
#include "msys/engine/job.hpp"
#include "msys/engine/schedule_cache.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/workloads/experiments.hpp"
#include "msys/workloads/random.hpp"

namespace perfbench {
namespace {

using namespace msys;

constexpr std::size_t kFamilyJobs = 512;

struct Item {
  std::string name;
  std::string text;
  // Reference output of compile_job (set up front).
  std::string rung;
  std::uint64_t cycles{0};
  Verdict verdict{Verdict::kOk};
};

/// (rung, cycles) of a compiled job, or the failure that stopped it.
struct Output {
  std::string rung;
  std::uint64_t cycles{0};
  Verdict verdict{Verdict::kOk};
};

Output output_of(const engine::CompiledResult& r) {
  Output out;
  out.rung = r.outcome.chosen_rung();
  out.cycles = r.feasible() ? r.predicted.total.value() : 0;
  out.verdict = r.feasible() ? Verdict::kOk : Verdict::kInfeasible;
  for (const Diagnostic& d : r.outcome.diagnostics) {
    if (d.code == "schedule.internal") out.verdict = Verdict::kFailed;
  }
  return out;
}

/// Per-stage times of one staged job, in microseconds.
struct StageTimes {
  double parse{0}, make_input{0}, cache_probe{0}, analysis{0}, fallback{0}, context_plan{0},
      cost{0};
  double job{0};
  bool costed{false};
};

class ColdCompile final : public Workload {
 public:
  const char* name() const override { return "cold-compile"; }
  double tail_percentile() const override { return 0.99; }

  void setup(std::uint64_t seed) override {
    items_.clear();
    for (std::size_t i = 0; i < kFamilyJobs; ++i) {
      workloads::RandomSpec spec;
      spec.seed = derive_seed(seed, i);
      spec.min_kernels = 8;
      spec.max_kernels = 14;
      spec.min_iterations = 8;
      spec.max_iterations = 32;
      spec.reuse_percent = 60;
      spec.shared_inputs = 3;
      const bool tight = i % 4 == 3;
      if (tight) spec.fb_scale_percent = 50;
      const workloads::RandomExperiment exp = workloads::make_random(spec);
      Item item;
      item.name = (tight ? "family-fb50:" : "family:") + std::to_string(spec.seed);
      item.text = appdsl::write(*exp.app, partition_names(exp.sched), exp.cfg);
      items_.push_back(std::move(item));
    }
    for (const std::string& row : workloads::table1_experiment_names()) {
      const workloads::Experiment exp = workloads::make_experiment(row);
      Item item;
      item.name = "table1:" + row;
      item.text = appdsl::write(*exp.app, partition_names(exp.sched), exp.cfg);
      items_.push_back(std::move(item));
    }
    // Precompile: the reference every timed job is checked against.
    fingerprint_ = {};
    output_cycles_ = 0;
    for (Item& item : items_) {
      const std::optional<engine::Job> job = parse_job(item);
      Output out;
      out.verdict = Verdict::kFailed;
      if (job) out = output_of(*engine::compile_job(*job));
      item.rung = out.rung;
      item.cycles = out.cycles;
      item.verdict = out.verdict;
      output_cycles_ += out.cycles;
      fingerprint_.add(item.name);
      fingerprint_.add(out.rung);
      fingerprint_.add(out.cycles);
    }
  }

  Measurement measure(double seconds, Tally& tally, SpeedReference& speed) override {
    Measurement m;
    m.output_cycles = output_cycles_;
    m.wall_s = passes(
        seconds,
        [&](const Item& item) {
          const auto t0 = Clock::now();
          const Output out = compile_one(item);
          m.add(t0, Clock::now());
          record(item, out, tally);
        },
        &speed);
    return m;
  }

  TracedSummary trace(double seconds, Tally& tally, Metrics& layers) override {
    // Each job runs twice, back to back and untraced: as measure() runs
    // it, with get_or_compile timed from outside (A), and stage by stage
    // (B).  Interleaving keeps machine noise from landing on one side
    // only.  Both compile the same schedule, so the obs counter deltas
    // are per compile.
    double e2e_us = 0, engine_us = 0;
    StageTimes sum_b;
    std::uint64_t jobs = 0, costed_b = 0;
    CounterDelta counters;
    passes(seconds * 0.7, [&](const Item& item) {
      // Alternate which side runs first: the second one finds the
      // corpus text and the allocator warm.
      const bool staged_first = jobs % 2 == 1;
      auto staged = [&] {
        const StageTimes t = staged_job(item, tally);
        add(sum_b, t);
        costed_b += t.costed ? 1 : 0;
      };
      if (staged_first) staged();
      const auto t0 = Clock::now();
      const Output out = compile_one(item, &engine_us);
      e2e_us += us_between(t0, Clock::now());
      record(item, out, tally);
      if (!staged_first) staged();
      ++jobs;
    });
    counters.stop();

    // Tracing overhead: the staged job untraced, then under a TraceSession.
    double untraced_us = 0, traced_us = 0;
    SpanCollector spans;
    std::uint64_t pairs = 0;
    passes(seconds * 0.3, [&](const Item& item) {
      const bool traced_first = pairs++ % 2 == 1;
      if (!traced_first) untraced_us += staged_job(item, tally).job;
      spans.record([&] { traced_us += staged_job(item, tally).job; });
      if (traced_first) untraced_us += staged_job(item, tally).job;
    });

    const double nb = static_cast<double>(jobs);
    const double compiles = 2.0 * nb;
    auto put = [&](const char* name, double v, const char* unit) {
      layers[name] = {v, unit};
    };
    put("appdsl.parse_us", sum_b.parse / nb, "us");
    put("model.make_input_us", sum_b.make_input / nb, "us");
    put("extract.analysis_us", sum_b.analysis / nb, "us");
    put("engine.cache_probe_us", sum_b.cache_probe / nb, "us");
    put("dsched.fallback_us", sum_b.fallback / nb, "us");
    put("csched.context_plan_us", ratio(sum_b.context_plan, costed_b), "us");
    put("dsched.cost_us", ratio(sum_b.cost, costed_b), "us");
    // get_or_compile minus the stages it runs: single-flight bookkeeping.
    const double compile_stages_us =
        (sum_b.cache_probe + sum_b.analysis + sum_b.fallback + sum_b.context_plan + sum_b.cost) /
        nb;
    put("engine.overhead_us", engine_us / nb - compile_stages_us, "us");
    put("engine.avg_miss_us", engine_us / nb, "us");
    put("dsched.plan_rounds_per_job", counters["dsched.plan.rounds"] / compiles, "count");
    put("dsched.plan_cache_hit_ratio",
        ratio(counters["dsched.plan_cache.hits"],
              counters["dsched.plan_cache.hits"] + counters["dsched.plan_cache.misses"]),
        "ratio");
    put("dsched.rf_candidates_per_job", counters["dsched.rf.candidates_evaluated"] / compiles,
        "count");
    put("dsched.retention_kept_ratio",
        ratio(counters["dsched.retention.kept"],
              counters["dsched.retention.kept"] + counters["dsched.retention.rejected"]),
        "ratio");
    put("dsched.cds_selected_ratio",
        ratio(counters["dsched.fallback.selected.CDS"], counters["dsched.fallback.chains"]),
        "ratio");
    put("alloc.allocations_per_job", counters["alloc.allocations"] / compiles, "count");
    put("alloc.preferred_hit_ratio",
        ratio(counters["alloc.preferred_hits"],
              counters["alloc.preferred_hits"] + counters["alloc.preferred_misses"]),
        "ratio");
    put("alloc.splits_per_job", counters["alloc.splits"] / compiles, "count");
    put("dsched.pick_rf_us", spans["dsched.pick_rf"].mean_us(), "us");
    put("dsched.cds_self_us", spans["dsched.cds"].self_mean_us(), "us");

    TracedSummary s;
    const double stages_us = (sum_b.parse + sum_b.make_input) / nb + compile_stages_us;
    s.stage_coverage = stages_us / (e2e_us / nb);
    s.trace_overhead_pct = 100.0 * (traced_us / untraced_us - 1.0);
    return s;
  }

 private:
  /// run_passes over the corpus, with a fresh cache for every pass.
  template <class Fn>
  double passes(double seconds, Fn&& fn, SpeedReference* speed = nullptr) {
    return run_passes(
        seconds, items_.size(), [&](std::size_t i) { fn(items_[i]); },
        [&](std::size_t) { cache_ = std::make_unique<engine::ScheduleCache>(); }, speed);
  }

  static std::optional<engine::Job> parse_job(const Item& item) {
    appdsl::ParseResult parsed = appdsl::parse_collect(item.text, item.name);
    if (!parsed.ok()) return std::nullopt;
    engine::Job job;
    job.input = engine::make_input(std::move(parsed.experiment->app),
                                   parsed.experiment->partition, parsed.experiment->cfg);
    return job;
  }

  /// parse -> make_input -> get_or_compile; adds the get_or_compile time
  /// to `*engine_us` when given.
  Output compile_one(const Item& item, double* engine_us = nullptr) {
    Output out;
    out.verdict = Verdict::kFailed;
    const std::optional<engine::Job> job = parse_job(item);
    if (!job) return out;
    const auto t0 = Clock::now();
    out = output_of(*cache_->get_or_compile(*job));
    if (engine_us != nullptr) *engine_us += us_between(t0, Clock::now());
    return out;
  }

  /// get_or_compile's stages called one by one on an empty cache, each
  /// timed: key + probe, extraction (built and torn down), the fallback
  /// chain, context plan, cost model, result + insert.
  StageTimes staged_job(const Item& item, Tally& tally) {
    StageTimes t;
    staged_cache_ = std::make_unique<engine::ScheduleCache>();
    const auto t0 = Clock::now();
    appdsl::ParseResult parsed = appdsl::parse_collect(item.text, item.name);
    const auto t1 = Clock::now();
    t.parse = us_between(t0, t1);
    Output out;
    out.verdict = Verdict::kFailed;
    if (parsed.ok()) {
      engine::Job job;
      job.input = engine::make_input(std::move(parsed.experiment->app),
                                     parsed.experiment->partition, parsed.experiment->cfg);
      const engine::CompileInput& input = job.input;
      const auto t2 = Clock::now();
      const std::uint64_t key = engine::cache_key(job);
      const bool hit = staged_cache_->lookup(key) != nullptr;
      const auto t3 = Clock::now();
      auto analysis =
          std::make_unique<extract::ScheduleAnalysis>(*input.sched, input.cfg.cross_set_reads);
      const auto t4 = Clock::now();
      auto result = std::make_shared<engine::CompiledResult>();
      result->outcome = dsched::schedule_with_fallback(*analysis, input.cfg);
      const auto t5 = Clock::now();
      analysis.reset();
      const auto t6 = Clock::now();
      t.make_input = us_between(t1, t2);
      t.cache_probe = us_between(t2, t3);
      t.analysis = us_between(t3, t4) + us_between(t5, t6);
      t.fallback = us_between(t4, t5);
      auto stage_end = t6;
      if (result->outcome.feasible()) {
        const csched::ContextPlan ctx =
            csched::ContextPlan::build(*input.sched, input.cfg.cm_capacity_words);
        const auto t7 = Clock::now();
        result->predicted = dsched::predict_cost(result->outcome.schedule, input.cfg, ctx);
        stage_end = Clock::now();
        t.context_plan = us_between(t6, t7);
        t.cost = us_between(t7, stage_end);
        t.costed = true;
      }
      result->input = input;
      staged_cache_->insert(key, result);
      t.cache_probe += us_between(stage_end, Clock::now());
      out = output_of(*result);
      if (hit) out.verdict = Verdict::kFailed;  // an empty cache cannot hit
    }
    t.job = us_between(t0, Clock::now());
    record(item, out, tally);
    return t;
  }

  static void add(StageTimes& a, const StageTimes& b) {
    a.parse += b.parse;
    a.make_input += b.make_input;
    a.cache_probe += b.cache_probe;
    a.analysis += b.analysis;
    a.fallback += b.fallback;
    a.context_plan += b.context_plan;
    a.cost += b.cost;
    a.job += b.job;
  }

  /// Counts the job and checks it reproduced the precompiled reference.
  void record(const Item& item, const Output& out, Tally& tally) {
    tally.record(item.name, out.verdict);
    if (out.rung != item.rung || out.cycles != item.cycles || out.verdict != item.verdict) {
      problem(item.name + ": got (" + out.rung + ", " + std::to_string(out.cycles) +
              "), reference (" + item.rung + ", " + std::to_string(item.cycles) + ")");
    }
  }

  std::vector<Item> items_;
  std::uint64_t output_cycles_{0};
  std::unique_ptr<engine::ScheduleCache> cache_;
  std::unique_ptr<engine::ScheduleCache> staged_cache_;
};

}  // namespace

std::unique_ptr<Workload> make_cold_compile() { return std::make_unique<ColdCompile>(); }

}  // namespace perfbench
