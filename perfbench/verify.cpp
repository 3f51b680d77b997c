// verify: the three-way check, with every schedule compiled in set-up.
//
// One closed-loop client runs validate_schedule -> codegen::generate ->
// Simulator::try_run and compares the SimReport field by field with the
// schedule's predict_cost.  The corpus mixes the Table-1 rows, the
// cold-compile family, a larger family (8-24 kernels, 8-64 iterations;
// programs of hundreds to ~17k ops, so per-op simulator cost shows in the
// tail) and the two known cost-model/simulator divergences, family seed
// 103695 and large seed 300056, kept in so the bug shows in every run.
//
// The random members are drawn by the run seed from generator-seed ranges
// that were screened exhaustively with the three-way check; the two
// divergences above are the only disagreements in those ranges, so any
// other failed verdict is a new one.
#include <optional>

#include "bench.hpp"
#include "msys/codegen/program.hpp"
#include "msys/csched/context_plan.hpp"
#include "msys/dsched/validate.hpp"
#include "msys/engine/job.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/sim/simulator.hpp"
#include "msys/workloads/experiments.hpp"
#include "msys/workloads/random.hpp"

namespace perfbench {
namespace {

using namespace msys;

constexpr std::size_t kFamily = 192;
constexpr std::size_t kLarge = 96;
// Screened generator-seed ranges and the known divergences inside them.
constexpr std::uint64_t kFamilyLo = 100000, kFamilyHi = 104000, kFamilyDivergent = 103695;
constexpr std::uint64_t kLargeLo = 300000, kLargeHi = 301500, kLargeDivergent = 300056;

workloads::RandomSpec family_spec(std::uint64_t seed) {
  workloads::RandomSpec spec;
  spec.seed = seed;
  spec.min_kernels = 8;
  spec.max_kernels = 14;
  spec.min_iterations = 8;
  spec.max_iterations = 32;
  spec.reuse_percent = 60;
  spec.shared_inputs = 3;
  return spec;
}

workloads::RandomSpec large_spec(std::uint64_t seed) {
  workloads::RandomSpec spec = family_spec(seed);
  spec.max_kernels = 24;
  spec.max_iterations = 64;
  return spec;
}

struct Item {
  std::string name;
  std::shared_ptr<const engine::CompiledResult> compiled;
  std::unique_ptr<extract::ScheduleAnalysis> analysis;
  std::optional<csched::ContextPlan> ctx;
  /// Hash of every SimReport field, from the item's first check.
  std::optional<std::uint64_t> report_hash;
};

struct StageTimes {
  double validate{0}, generate{0}, sim{0}, check{0};
  std::uint64_t ops{0};
};

std::uint64_t report_hash(const sim::SimReport& r) {
  Fingerprint f;
  for (const std::uint64_t v :
       {r.total.value(), r.compute.value(), r.stall.value(), r.dma_busy.value(),
        r.data_words_loaded, r.data_words_stored, r.context_words, r.dma_requests,
        r.exec_count, r.release_count, r.max_resident_words[0], r.max_resident_words[1],
        std::uint64_t{r.max_cm_words}}) {
    f.add(v);
  }
  return f.value();
}

bool matches(const dsched::CostBreakdown& p, const sim::SimReport& r) {
  return p.total == r.total && p.compute == r.compute && p.stall == r.stall &&
         p.dma_busy == r.dma_busy && p.data_words_loaded == r.data_words_loaded &&
         p.data_words_stored == r.data_words_stored && p.context_words == r.context_words &&
         p.dma_requests == r.dma_requests;
}

class Verify final : public Workload {
 public:
  const char* name() const override { return "verify"; }
  double tail_percentile() const override { return 0.99; }

  void setup(std::uint64_t seed) override {
    items_.clear();
    output_cycles_ = 0;
    for (const std::string& row : workloads::table1_experiment_names()) {
      workloads::Experiment exp = workloads::make_experiment(row);
      add("table1:" + row, std::move(exp.app), exp.sched, exp.cfg);
    }
    for (const std::uint64_t s : draw_seeds(derive_seed(seed, 1), family_spec(0), kFamilyLo,
                                            kFamilyHi, {kFamilyDivergent}, kFamily)) {
      add_random("family:", family_spec(s));
    }
    for (const std::uint64_t s : draw_seeds(derive_seed(seed, 2), large_spec(0), kLargeLo,
                                            kLargeHi, {kLargeDivergent}, kLarge)) {
      add_random("large:", large_spec(s));
    }
    add_random("family:", family_spec(kFamilyDivergent));
    add_random("large:", large_spec(kLargeDivergent));
  }

  Measurement measure(double seconds, Tally& tally, SpeedReference& speed) override {
    Measurement m;
    m.output_cycles = output_cycles_;
    m.wall_s = passes(
        seconds,
        [&](Item& item) {
          const auto t0 = Clock::now();
          (void)check(item, tally);
          m.add(t0, Clock::now());
        },
        &speed);
    return m;
  }

  TracedSummary trace(double seconds, Tally& tally, Metrics& layers) override {
    StageTimes sum;
    std::uint64_t checks = 0;
    const double wall_a = passes(seconds * 0.7, [&](Item& item) {
      const StageTimes t = check(item, tally);
      sum.validate += t.validate;
      sum.generate += t.generate;
      sum.sim += t.sim;
      sum.check += t.check;
      sum.ops += t.ops;
      ++checks;
    });
    double traced_us = 0, untraced_us = 0;
    SpanCollector spans;
    std::uint64_t pairs = 0;
    passes(seconds * 0.3, [&](Item& item) {
      // Pair each traced check with an untraced one of the same item,
      // alternating which runs first.
      const bool traced_first = pairs++ % 2 == 1;
      if (!traced_first) untraced_us += check(item, tally).check;
      spans.record([&] { traced_us += check(item, tally).check; });
      if (traced_first) untraced_us += check(item, tally).check;
    });

    const double n = static_cast<double>(checks);
    layers["dsched.validate_us"] = {sum.validate / n, "us"};
    layers["codegen.generate_us"] = {sum.generate / n, "us"};
    layers["codegen.ops_per_program"] = {static_cast<double>(sum.ops) / n, "count"};
    layers["sim.run_us"] = {sum.sim / n, "us"};
    layers["sim.ops_per_host_s"] = {static_cast<double>(sum.ops) / (sum.sim / 1e6), "1/s"};

    TracedSummary s;
    s.stage_coverage = (sum.validate + sum.generate + sum.sim) / (wall_a * 1e6);
    s.trace_overhead_pct = 100.0 * (traced_us / untraced_us - 1.0);
    return s;
  }

 private:
  void add_random(const std::string& prefix, const workloads::RandomSpec& spec) {
    workloads::RandomExperiment exp = workloads::make_random(spec);
    add(prefix + std::to_string(spec.seed), std::move(exp.app), exp.sched, exp.cfg);
  }

  /// Compiles one corpus member through the fallback chain (set-up work).
  void add(std::string name, std::unique_ptr<model::Application> app,
           const model::KernelSchedule& sched, const arch::M1Config& cfg) {
    std::vector<std::vector<KernelId>> partition;
    for (const model::Cluster& c : sched.clusters()) partition.push_back(c.kernels);
    engine::Job job;
    job.input = engine::make_input(std::move(*app), std::move(partition), cfg);
    Item item;
    item.name = std::move(name);
    item.compiled = engine::compile_job(job);
    if (!item.compiled->feasible()) {
      problem(item.name + ": corpus member has no feasible schedule");
      return;
    }
    const dsched::DataSchedule& schedule = item.compiled->outcome.schedule;
    item.analysis = std::make_unique<extract::ScheduleAnalysis>(*schedule.sched,
                                                                 cfg.cross_set_reads);
    item.ctx = csched::ContextPlan::build(*schedule.sched, cfg.cm_capacity_words);
    output_cycles_ += item.compiled->predicted.total.value();
    items_.push_back(std::move(item));
  }

  /// run_passes over the corpus; the fingerprint is taken once every
  /// input has been checked.
  template <class Fn>
  double passes(double seconds, Fn&& fn, SpeedReference* speed = nullptr) {
    return run_passes(
        seconds, items_.size(), [&](std::size_t i) { fn(items_[i]); },
        [&](std::size_t pass) {
          if (pass != 1) return;
          fingerprint_ = {};
          for (const Item& item : items_) {
            fingerprint_.add(item.name);
            fingerprint_.add(item.report_hash.value_or(0));
          }
        },
        speed);
  }

  /// validate -> generate -> simulate -> compare, each stage timed.
  StageTimes check(Item& item, Tally& tally) {
    StageTimes t;
    const engine::CompiledResult& c = *item.compiled;
    const arch::M1Config& cfg = c.input.cfg;
    const auto t0 = Clock::now();
    const Diagnostics diags = dsched::validate_schedule(c.outcome.schedule, *item.analysis, cfg);
    const auto t1 = Clock::now();
    const codegen::ScheduleProgram program = codegen::generate(c.outcome.schedule, *item.ctx);
    const auto t2 = Clock::now();
    sim::Simulator simulator(cfg, *item.ctx);
    const sim::Simulator::Outcome run = simulator.try_run(program);
    const auto t3 = Clock::now();
    const bool ok = !has_errors(diags) && run.ok() && matches(c.predicted, *run.report);
    const auto t4 = Clock::now();
    t.validate = us_between(t0, t1);
    t.generate = us_between(t1, t2);
    t.sim = us_between(t2, t3);
    t.check = us_between(t0, t4);
    t.ops = program.dma_ops.size() + program.rc_ops.size();

    tally.record(item.name, ok ? Verdict::kOk : Verdict::kFailed);
    const std::uint64_t h = run.ok() ? report_hash(*run.report) : 0;
    if (!item.report_hash) {
      item.report_hash = h;
    } else if (*item.report_hash != h) {
      problem(item.name + ": SimReport changed between checks of one run");
    }
    return t;
  }

  std::vector<Item> items_;
  std::uint64_t output_cycles_{0};
};

}  // namespace

std::unique_ptr<Workload> make_verify() { return std::make_unique<Verify>(); }

std::set<std::string> known_divergent_inputs() {
  return {"family:" + std::to_string(kFamilyDivergent),
          "large:" + std::to_string(kLargeDivergent)};
}

}  // namespace perfbench
