// The decision walk against the placement walk (alloc_driver.hpp): with
// splitting on in every walk, a placement walk fails only when a set's
// live words exceed it, so the two walks must agree on ok, fail_reason and
// every cluster's loads and stores — or throw the same invariant error.
// Replayed over the fuzz corpus, Table 1 and cold-compile-family seeds at
// FB scales 100/75/50/25%, with cross-set reads off and on, at RF
// 1..max+1 with the retained set empty, each candidate alone and each
// prefix of the TF-ranked candidates.  Each decision is compared with the
// placement walk under the first-fit with regularity hints that every rung
// ships and under first-fit without them; the empty set also runs Basic's
// release policy.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "msys/common/error.hpp"
#include "msys/dsched/alloc_driver.hpp"
#include "msys/dsched/schedulers.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/workloads/experiments.hpp"
#include "testing/corpus.hpp"
#include "testing/fingerprint.hpp"
#include "testing/oracle.hpp"

namespace msys::dsched {
namespace {

/// What both walks must agree on, or the invariant error a walk threw.
std::string outcome_of(const std::function<RoundDecision()>& walk) {
  try {
    return testing::decision_fingerprint(walk());
  } catch (const Error& e) {
    return std::string("throws: ") + e.what();
  }
}

struct Tally {
  std::uint64_t compared{0};
  std::uint64_t fits{0};
  std::uint64_t fails{0};
  std::uint64_t split_placements{0};
};

/// Compares the decision walk at `options` with the placement walk with
/// and without regularity hints.
void compare_walks(const std::string& name, const extract::ScheduleAnalysis& analysis,
                   SizeWords fbs, const DriverOptions& options, Tally& tally) {
  static PlanScratch scratch;
  const std::string decided =
      outcome_of([&] { return decide_round(analysis, fbs, options, scratch); });
  DriverOptions no_hints = options;
  no_hints.regularity_hints = false;
  for (const DriverOptions& placement : {options, no_hints}) {
    const std::string placed = outcome_of([&] {
      DriverResult result = plan_round(analysis, fbs, placement, scratch);
      tally.split_placements += result.summary.splits;
      return RoundDecision(std::move(result));
    });
    EXPECT_EQ(decided, placed) << name << " rf=" << options.rf
                               << " retained=" << options.retained.size()
                               << " release=" << options.release_at_last_use
                               << " hints=" << placement.regularity_hints;
    ++tally.compared;
  }
  (decided.starts_with("1|") ? tally.fits : tally.fails) += 1;
}

void check_case(const std::string& name, const model::KernelSchedule& sched,
                const arch::M1Config& base, Tally& tally) {
  for (const bool cross : {false, true}) {
    const arch::M1Config cfg = base.with_cross_set_reads(cross);
    const extract::ScheduleAnalysis analysis(sched, cross);
    const std::string label = name + (cross ? " cross" : "");
    std::uint32_t max_rf = 0;
    try {
      max_rf = compute_max_rf(analysis, cfg, DriverOptions{});
    } catch (const Error&) {
      // An adversarial input whose walk throws: compare the throw at RF 1.
    }
    const std::vector<extract::RetentionCandidate>& cands = analysis.retention_candidates();
    for (std::uint32_t rf = 1; rf <= max_rf + 1; ++rf) {
      DriverOptions options;
      options.rf = rf;
      compare_walks(label, analysis, cfg.fb_set_size, options, tally);
      options.release_at_last_use = false;  // Basic's policy
      compare_walks(label, analysis, cfg.fb_set_size, options, tally);
      options.release_at_last_use = true;
      for (const extract::RetentionCandidate& cand : cands) {
        DriverOptions single = options;
        single.retained.insert(cand.data);
        compare_walks(label, analysis, cfg.fb_set_size, single, tally);
      }
      for (const extract::RetentionCandidate& cand : cands) {
        options.retained.insert(cand.data);  // the prefix ending at cand
        compare_walks(label, analysis, cfg.fb_set_size, options, tally);
      }
    }
  }
}

TEST(DecisionWalk, AgreesWithThePlacementWalk) {
  Tally tally;
  for (const testing::ParsedCase& c : testing::corpus_cases()) {
    check_case(c.name, c.sched, c.cfg, tally);
  }
  for (const std::string& row : workloads::table1_experiment_names()) {
    const workloads::Experiment exp = workloads::make_experiment(row);
    check_case(row, exp.sched, exp.cfg, tally);
  }
  for (std::uint64_t seed = 200000; seed < 200064; ++seed) {
    for (const std::uint32_t scale : {100u, 75u, 50u, 25u}) {
      workloads::RandomSpec spec = testing::family_spec(seed);
      spec.fb_scale_percent = scale;
      const workloads::RandomExperiment exp = workloads::make_random(spec);
      check_case("family " + std::to_string(seed) + " fb" + std::to_string(scale) + "%",
                 exp.sched, exp.cfg, tally);
    }
  }
  // Both outcomes and the splitting path are exercised, not just fits.
  EXPECT_GE(tally.compared, 30000u);
  EXPECT_GT(tally.fits, 5000u);
  EXPECT_GT(tally.fails, 5000u);
  EXPECT_GT(tally.split_placements, 0u);
  RecordProperty("compared", std::to_string(tally.compared));
  RecordProperty("split_placements", std::to_string(tally.split_placements));
  RecordProperty("fits", std::to_string(tally.fits));
  RecordProperty("fails", std::to_string(tally.fails));
}

}  // namespace
}  // namespace msys::dsched
