// The fallback ladder's rescue property (fallback.hpp).  Every walk may
// split, so a rung fails only on live words: CDS fails only when its RF-1
// walk with nothing retained fails, which is DS's first walk and DS+split's
// only one, and Basic holds at least as many live words.  So after a CDS
// or DS entry no later rung rescues an input; entered at Basic, DS+split
// still can.  So a chain entered at CDS is the CDS: feasible exactly when
// CompleteDataScheduler alone is, with the same schedule, for the paper's
// options and the ablations' (joint RF/retention, density ranking), which
// the engine's CDS jobs run through the chain.  Checked over the fuzz
// corpus and the oracle screen's family and large seed ranges at FB scales
// 100/75/50/25%, with cross-set reads off and on.
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
  std::uint64_t infeasible_at_cds{0};
  std::uint64_t rescued_after_basic{0};
};

void check_ladder(const std::string& name, const model::KernelSchedule& sched,
                  const arch::M1Config& base, Tally& tally) {
  for (const bool cross : {false, true}) {
    const arch::M1Config cfg = base.with_cross_set_reads(cross);
    const extract::ScheduleAnalysis analysis(sched, cross);
    const std::string label = name + (cross ? " cross" : "");
    for (const FallbackEntry entry : {FallbackEntry::kCDS, FallbackEntry::kDS,
                                      FallbackEntry::kBasic}) {
      FallbackOptions options;
      options.entry = entry;
      const ScheduleOutcome outcome = schedule_with_fallback(analysis, cfg, options);
      const std::string chosen = outcome.chosen_rung();
      ++tally.chains;
      for (const Diagnostic& d : outcome.diagnostics) {
        EXPECT_NE(d.code, "schedule.internal") << label << ": " << d.message;
      }
      if (entry == FallbackEntry::kBasic) {
        tally.rescued_after_basic += chosen == "DS+split" ? 1 : 0;
        continue;
      }
      const std::string first = to_string(entry);
      EXPECT_TRUE(chosen.empty() || chosen == first)
          << label << " entered at " << first << " was rescued by " << chosen << ": "
          << outcome.chain_summary();
      if (entry == FallbackEntry::kCDS && chosen.empty()) ++tally.infeasible_at_cds;
    }
    using Options = CompleteDataScheduler::Options;
    for (const Options cds : {Options{}, Options{.joint_rf_retention = true},
                              Options{.ranking = Options::Ranking::kDensity}}) {
      const ScheduleOutcome chain = schedule_with_fallback(analysis, cfg, {.cds = cds});
      const DataSchedule alone = CompleteDataScheduler{cds}.schedule(analysis, cfg);
      ASSERT_EQ(chain.feasible(), alone.feasible) << label << ": " << chain.chain_summary();
      if (alone.feasible) {
        EXPECT_EQ(testing::schedule_fingerprint(chain.schedule),
                  testing::schedule_fingerprint(alone))
            << label;
      }
    }
  }
}

TEST(FallbackLadder, NoRungRescuesAfterACdsOrDsEntry) {
  Tally tally;
  for (const testing::ParsedCase& c : testing::corpus_cases()) {
    check_ladder(c.name, c.sched, c.cfg, tally);
  }
  auto check_spec = [&](const std::string& family, workloads::RandomSpec spec) {
    for (const std::uint32_t scale : {100u, 75u, 50u, 25u}) {
      spec.fb_scale_percent = scale;
      const workloads::RandomExperiment exp = workloads::make_random(spec);
      check_ladder(family + " " + std::to_string(spec.seed) + " fb" + std::to_string(scale) + "%",
                   exp.sched, exp.cfg, tally);
    }
  };
  for (std::uint64_t seed = 100000; seed < 100400; ++seed) {
    check_spec("family", testing::family_spec(seed));
  }
  for (std::uint64_t seed = 300000; seed < 300200; ++seed) {
    check_spec("large", testing::large_spec(seed));
  }
  // Not vacuous: many chains fail at CDS, and DS+split does rescue Basic.
  EXPECT_GT(tally.infeasible_at_cds, 1000u);
  EXPECT_GT(tally.rescued_after_basic, 100u);
  RecordProperty("chains", std::to_string(tally.chains));
  RecordProperty("infeasible_at_cds", std::to_string(tally.infeasible_at_cds));
  RecordProperty("rescued_after_basic", std::to_string(tally.rescued_after_basic));
}

}  // namespace
}  // namespace msys::dsched
