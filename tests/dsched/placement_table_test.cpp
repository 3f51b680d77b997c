// A DataSchedule's placements are the placement walk's records, sorted by
// key, over a copy of its extent array (schedule_types.hpp).  Over the fuzz
// corpus, Table 1 and cold-compile-family seeds, with cross-set reads off
// and on, every RF that fits and both an empty retained set and CDS's, the
// built schedule's records must be strictly ascending by key, and
// placement(cluster, inst) must return exactly the walk's set and extents
// for every record and throw for a key no record has.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>

#include "msys/common/error.hpp"
#include "msys/dsched/alloc_driver.hpp"
#include "msys/dsched/schedulers.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/workloads/experiments.hpp"
#include "testing/corpus.hpp"
#include "testing/oracle.hpp"

namespace msys::dsched {
namespace {

struct Tally {
  std::uint64_t schedules{0};
  std::uint64_t records{0};
};

/// Builds the schedule of one placement walk and checks it against the
/// walk.
void check_walk(const std::string& label, const extract::ScheduleAnalysis& analysis,
                SizeWords fbs, const DriverOptions& options, Tally& tally) {
  const DriverResult walk = plan_round(analysis, fbs, options);
  if (!walk.ok) return;
  const DataSchedule s = to_schedule(DriverResult(walk), "CDS", analysis.sched(), options);
  ++tally.schedules;
  ASSERT_EQ(s.placements.size(), walk.placements.size()) << label;
  EXPECT_TRUE(std::adjacent_find(s.placements.begin(), s.placements.end(),
                                 [](const PlacementRecord& a, const PlacementRecord& b) {
                                   return a.key >= b.key;
                                 }) == s.placements.end())
      << label << " rf=" << options.rf << ": records not strictly ascending by key";
  const auto n_clusters = static_cast<std::uint32_t>(analysis.sched().cluster_count());
  for (const PlacementRecord& p : walk.placements) {
    const auto [cluster, inst] = DataSchedule::unkey(p.key);
    const Placement placed = s.placement(cluster, inst);
    EXPECT_EQ(placed.set, p.set) << label << " key " << p.key;
    EXPECT_TRUE(std::ranges::equal(
        placed.extents,
        std::span<const Extent>(walk.extents).subspan(p.extent_begin, p.extent_count)))
        << label << " key " << p.key;
    ++tally.records;
    // Keys no record has: the iteration past RF, and a cluster past the
    // schedule's last.
    for (const auto& [absent_cluster, absent_inst] :
         {std::pair{cluster, ObjInstance{inst.data, options.rf}},
          std::pair{ClusterId{n_clusters}, inst}}) {
      EXPECT_FALSE(s.has_placement(absent_cluster, absent_inst)) << label;
      EXPECT_THROW((void)s.placement(absent_cluster, absent_inst), Error) << label;
    }
  }
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
      continue;  // an adversarial input whose walk throws builds no schedule
    }
    for (std::uint32_t rf = 1; rf <= max_rf; ++rf) {
      DriverOptions options;
      options.rf = rf;
      check_walk(label, analysis, cfg.fb_set_size, options, tally);
    }
    const DataSchedule cds = CompleteDataScheduler{}.schedule(analysis, cfg);
    if (cds.feasible) {
      DriverOptions options;
      options.rf = cds.rf;
      options.retained = cds.retained;
      check_walk(label + " cds", analysis, cfg.fb_set_size, options, tally);
    }
  }
}

TEST(PlacementTable, SortedRecordsMatchTheWalk) {
  Tally tally;
  for (const testing::ParsedCase& c : testing::corpus_cases()) {
    check_case(c.name, c.sched, c.cfg, tally);
  }
  for (const std::string& row : workloads::table1_experiment_names()) {
    const workloads::Experiment exp = workloads::make_experiment(row);
    check_case(row, exp.sched, exp.cfg, tally);
  }
  for (std::uint64_t seed = 200000; seed < 200064; ++seed) {
    for (const std::uint32_t scale : {100u, 50u}) {
      workloads::RandomSpec spec = testing::family_spec(seed);
      spec.fb_scale_percent = scale;
      const workloads::RandomExperiment exp = workloads::make_random(spec);
      check_case("family " + std::to_string(seed) + " fb" + std::to_string(scale) + "%",
                 exp.sched, exp.cfg, tally);
    }
  }
  EXPECT_GT(tally.schedules, 500u);
  RecordProperty("schedules", std::to_string(tally.schedules));
  RecordProperty("records", std::to_string(tally.records));
}

}  // namespace
}  // namespace msys::dsched
