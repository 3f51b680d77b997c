// Each pipeline (fallback.hpp) is its scheduler run alone.  Every walk may
// split, so a rung fails only on live words: CDS fails only when its RF-1
// walk with nothing retained fails, which is DS's first walk and the
// rescue rung's only one, and Basic holds at least as many live words.  So
// no rung could rescue CDS or DS, and each is one rung: feasible exactly
// when its scheduler alone is, with the same schedule — for CDS with the
// paper's options and the ablations' (joint RF/retention, density
// ranking).  Basic can be rescued: Basic-then-rescue is Basic alone
// wherever Basic fits, and elsewhere fits exactly when DS does.  Checked
// over the fuzz corpus and the oracle screen's family and large seed
// ranges at FB scales 100/75/50/25%, with cross-set reads off and on.
#include <gtest/gtest.h>

#include <string>

#include "msys/dsched/fallback.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/workloads/random.hpp"
#include "testing/corpus.hpp"
#include "testing/fingerprint.hpp"
#include "testing/oracle.hpp"

namespace msys::dsched {
namespace {

struct Tally {
  std::uint64_t chains{0};
  std::uint64_t infeasible_at_ds{0};
  std::uint64_t rescued_after_basic{0};
};

/// `pipeline` on `analysis` is `alone`: same feasibility and, when
/// feasible, the same schedule.
void expect_alone(const std::string& label, const ScheduleOutcome& pipeline,
                  const DataSchedule& alone, Tally& tally) {
  ++tally.chains;
  for (const Diagnostic& d : pipeline.diagnostics) {
    EXPECT_NE(d.code, "schedule.internal") << label << ": " << d.message;
  }
  ASSERT_EQ(pipeline.feasible(), alone.feasible) << label << ": " << pipeline.chain_summary();
  if (alone.feasible) {
    EXPECT_EQ(testing::schedule_fingerprint(pipeline.schedule),
              testing::schedule_fingerprint(alone))
        << label;
  }
}

void check_pipelines(const std::string& name, const model::KernelSchedule& sched,
                     const arch::M1Config& base, Tally& tally) {
  for (const bool cross : {false, true}) {
    const arch::M1Config cfg = base.with_cross_set_reads(cross);
    const extract::ScheduleAnalysis analysis(sched, cross);
    const std::string label = name + (cross ? " cross" : "");
    auto run = [&](Pipeline pipeline) {
      return schedule_with_fallback(analysis, cfg, {.pipeline = pipeline});
    };
    using Options = CompleteDataScheduler::Options;
    for (const Options cds : {Options{}, Options{.joint_rf_retention = true},
                              Options{.ranking = Options::Ranking::kDensity}}) {
      expect_alone(label + " CDS", schedule_with_fallback(analysis, cfg, {.cds = cds}),
                   CompleteDataScheduler{cds}.schedule(analysis, cfg), tally);
    }
    const DataSchedule ds = DataScheduler{}.schedule(analysis, cfg);
    const DataSchedule basic = BasicScheduler{}.schedule(analysis, cfg);
    expect_alone(label + " DS", run(Pipeline::kDS), ds, tally);
    tally.infeasible_at_ds += ds.feasible ? 0 : 1;
    expect_alone(label + " Basic", run(Pipeline::kBasic), basic, tally);

    const ScheduleOutcome rescued = run(Pipeline::kBasicThenRescue);
    if (basic.feasible) {
      expect_alone(label + " Basic-then-rescue", rescued, basic, tally);
      EXPECT_EQ(rescued.chosen_rung(), "Basic") << label;
    } else {
      ++tally.chains;
      ASSERT_EQ(rescued.feasible(), ds.feasible) << label << ": " << rescued.chain_summary();
      if (ds.feasible) {
        EXPECT_EQ(rescued.chosen_rung(), "DS+split") << label;
        ++tally.rescued_after_basic;
      }
    }
  }
}

TEST(FallbackLadder, NoRungRescuesAfterACdsOrDsEntry) {
  Tally tally;
  for (const testing::ParsedCase& c : testing::corpus_cases()) {
    check_pipelines(c.name, c.sched, c.cfg, tally);
  }
  auto check_spec = [&](const std::string& family, workloads::RandomSpec spec) {
    for (const std::uint32_t scale : {100u, 75u, 50u, 25u}) {
      spec.fb_scale_percent = scale;
      const workloads::RandomExperiment exp = workloads::make_random(spec);
      check_pipelines(
          family + " " + std::to_string(spec.seed) + " fb" + std::to_string(scale) + "%",
          exp.sched, exp.cfg, tally);
    }
  };
  for (std::uint64_t seed = 100000; seed < 100400; ++seed) {
    check_spec("family", testing::family_spec(seed));
  }
  for (std::uint64_t seed = 300000; seed < 300200; ++seed) {
    check_spec("large", testing::large_spec(seed));
  }
  // Not vacuous: many inputs fit neither DS nor CDS, and the rescue rung
  // does rescue Basic.
  EXPECT_GT(tally.infeasible_at_ds, 1000u);
  EXPECT_GT(tally.rescued_after_basic, 100u);
  RecordProperty("chains", std::to_string(tally.chains));
  RecordProperty("infeasible_at_ds", std::to_string(tally.infeasible_at_ds));
  RecordProperty("rescued_after_basic", std::to_string(tally.rescued_after_basic));
}

}  // namespace
}  // namespace msys::dsched
