// Differential properties of the RF search and the plan memo, replayed
// over the fuzz corpus, generated adversarial cases, and the shared test
// apps:
//
//   1. fit is monotone in RF: scanning every RF from 1 to the iteration
//      count, the feasible ones are exactly {1..k}, k being what the
//      exponential-probe + binary-search compute_max_rf returns — over
//      the retention cases below, cross-set reads off and on, and
//      release-at-last-use on and off;
//   2. the schedule a memoizing scheduler ships is byte-identical to a
//      fresh un-memoized Figure-4 walk at the same (RF, retained set) —
//      the memo can change how often plan_round runs, never what it
//      returns;
//   3. scheduler runs are deterministic (the per-run memo leaks no state
//      across calls);
//   4. §4 retention: with cross-set reads off, fit is monotone in the
//      retained set (every prefix of a fitting set fits), and CDS's
//      longest-fitting-prefix search keeps exactly the set a
//      per-candidate greedy keeps — in both cross-set modes, over these
//      cases plus Table 1 and the oracle screen's seed ranges.  A pinned
//      witness shows why cross-set mode probes one candidate per walk.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "msys/arch/m1.hpp"
#include "msys/dsched/alloc_driver.hpp"
#include "msys/dsched/plan_cache.hpp"
#include "msys/dsched/schedulers.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/fuzzing/fuzzing.hpp"
#include "msys/obs/metrics.hpp"
#include "msys/obs/trace.hpp"
#include "msys/workloads/experiments.hpp"
#include "testing/apps.hpp"
#include "testing/corpus.hpp"
#include "testing/fingerprint.hpp"
#include "testing/oracle.hpp"

namespace msys::dsched {
namespace {

using Case = testing::ParsedCase;

std::vector<Case> gather_cases() {
  // Checked-in minimized repros.
  std::vector<Case> cases = testing::corpus_cases();
  // Generated adversarial scenarios: cover every scenario class a few
  // times (kScenarioClasses cycles with the seed).
  for (std::uint64_t seed = 1; seed <= 3 * fuzzing::kScenarioClasses; ++seed) {
    const fuzzing::FuzzCase c = fuzzing::make_case(seed);
    testing::add_parsed_case(cases, c.name, c.text);
  }
  return cases;
}

/// Calls `fn(name, sched, cfg)` for every retention case: the gathered
/// cases, the shared test apps at several FB sizes, the Table-1 rows and
/// the oracle screen's family and large seed ranges.
template <typename Fn>
void for_each_retention_case(Fn&& fn) {
  for (const Case& c : gather_cases()) fn(c.name, c.sched, c.cfg);
  testing::TwoClusterApp two = testing::TwoClusterApp::make(/*iterations=*/12);
  testing::RetentionApp ret = testing::RetentionApp::make(/*iterations=*/9);
  for (const model::KernelSchedule* sched : {&two.sched, &ret.sched}) {
    for (const std::uint64_t fb : {128u, 300u, 512u, 1024u, 4096u}) {
      fn(sched->app().name() + " fb=" + std::to_string(fb), *sched, testing::test_cfg(fb));
    }
  }
  for (const std::string& row : workloads::table1_experiment_names()) {
    const workloads::Experiment exp = workloads::make_experiment(row);
    fn(row, exp.sched, exp.cfg);
  }
  for (std::uint64_t seed = 100000; seed < 104000; ++seed) {
    const workloads::RandomExperiment exp = workloads::make_random(testing::family_spec(seed));
    fn("family " + std::to_string(seed), exp.sched, exp.cfg);
  }
  for (std::uint64_t seed = 300000; seed < 301500; ++seed) {
    const workloads::RandomExperiment exp = workloads::make_random(testing::large_spec(seed));
    fn("large " + std::to_string(seed), exp.sched, exp.cfg);
  }
}

/// Every RF from 1 to the application's iteration count whose decision
/// walk fits, scanned to the end: a fit after a failure stays in the list.
std::vector<std::uint32_t> feasible_rfs(const extract::ScheduleAnalysis& analysis,
                                        const arch::M1Config& cfg, DriverOptions options) {
  static PlanScratch scratch;  // the tests are single-threaded
  std::vector<std::uint32_t> rfs;
  for (std::uint32_t rf = 1; rf <= analysis.app().total_iterations(); ++rf) {
    options.rf = rf;
    if (decide_round(analysis, cfg.fb_set_size, options, scratch).ok) rfs.push_back(rf);
  }
  return rfs;
}

/// {1, ..., k}: the feasible set compute_max_rf's search assumes.
std::vector<std::uint32_t> prefix(std::uint32_t k) {
  std::vector<std::uint32_t> rfs(k);
  std::iota(rfs.begin(), rfs.end(), 1u);
  return rfs;
}

TEST(RfSearchProperty, BinarySearchMatchesLinearScan) {
  // The lemma compute_max_rf's probe and binary search rest on: the RFs
  // that fit are exactly {1..k}, k being the RF the search returns.  The
  // scan walks every RF, so a set with a hole shows.
  int compared = 0;
  for_each_retention_case([&](const std::string& name, const model::KernelSchedule& sched,
                              const arch::M1Config& base) {
    for (const bool cross : {false, true}) {
      const arch::M1Config cfg = base.with_cross_set_reads(cross);
      const extract::ScheduleAnalysis analysis(sched, cross);
      for (const bool release_at_last_use : {true, false}) {
        DriverOptions options;
        options.release_at_last_use = release_at_last_use;
        EXPECT_EQ(feasible_rfs(analysis, cfg, options),
                  prefix(compute_max_rf(analysis, cfg, options)))
            << name << " cross=" << cross << " release_at_last_use=" << release_at_last_use;
        ++compared;
      }
    }
  });
  EXPECT_GE(compared, 4 * 5500);
}

TEST(RfSearchProperty, MemoizedScheduleMatchesFreshWalk) {
  // Whatever (RF, retained set) a scheduler settled on, one fresh
  // plan_round at those exact options must reproduce the shipped round
  // plan and placements byte for byte — a memo hit is a recompute.
  const std::vector<Case> cases = gather_cases();
  CompleteDataScheduler::Options joint_opts;
  joint_opts.joint_rf_retention = true;
  const DataScheduler ds;
  const CompleteDataScheduler cds;
  const CompleteDataScheduler cds_joint{joint_opts};
  const std::vector<const DataSchedulerBase*> schedulers = {&ds, &cds, &cds_joint};
  int verified = 0;
  for (const Case& c : cases) {
    const extract::ScheduleAnalysis analysis(c.sched, c.cfg.cross_set_reads);
    for (const DataSchedulerBase* scheduler : schedulers) {
      DataSchedule shipped;
      try {
        shipped = scheduler->schedule(analysis, c.cfg);
      } catch (const std::exception&) {
        continue;  // adversarial cases may fail structurally; not under test
      }
      if (!shipped.feasible) continue;
      DriverOptions options;
      options.rf = shipped.rf;
      options.retained = shipped.retained;
      options.release_at_last_use = true;  // DS and CDS both replace
      const DriverResult fresh = plan_round(analysis, c.cfg.fb_set_size, options);
      ASSERT_TRUE(fresh.ok) << c.name << " " << scheduler->name();
      EXPECT_EQ(testing::plan_fingerprint(shipped),
                testing::plan_fingerprint(fresh))
          << c.name << " " << scheduler->name();
      ++verified;
    }
  }
  EXPECT_GE(verified, 10);
}

TEST(RfSearchProperty, SchedulerRunsAreDeterministic) {
  // The memo lives and dies inside one schedule() call: two runs over the
  // same analysis must agree exactly.
  const std::vector<Case> cases = gather_cases();
  const DataScheduler ds;
  const CompleteDataScheduler cds;
  for (const Case& c : cases) {
    const extract::ScheduleAnalysis analysis(c.sched, c.cfg.cross_set_reads);
    for (const DataSchedulerBase* scheduler :
         {static_cast<const DataSchedulerBase*>(&ds),
          static_cast<const DataSchedulerBase*>(&cds)}) {
      DataSchedule first;
      try {
        first = scheduler->schedule(analysis, c.cfg);
      } catch (const std::exception&) {
        continue;
      }
      const DataSchedule second = scheduler->schedule(analysis, c.cfg);
      EXPECT_EQ(testing::schedule_fingerprint(first), testing::schedule_fingerprint(second))
          << c.name << " " << scheduler->name();
    }
  }
}

TEST(RfSearchProperty, SharedTestAppsAgreeAcrossFbSizes) {
  // The shared handwritten apps at several FB sizes, including sizes small
  // enough that RF=1 fails — the boundary the binary search must not
  // misreport.
  testing::TwoClusterApp two = testing::TwoClusterApp::make(/*iterations=*/12);
  testing::RetentionApp ret = testing::RetentionApp::make(/*iterations=*/9);
  const std::vector<const model::KernelSchedule*> scheds = {&two.sched, &ret.sched};
  for (const model::KernelSchedule* sched : scheds) {
    for (const std::uint64_t fb : {128u, 300u, 512u, 1024u, 4096u, 65536u}) {
      const arch::M1Config cfg = testing::test_cfg(fb);
      const extract::ScheduleAnalysis analysis(*sched, cfg.cross_set_reads);
      const DriverOptions options;
      EXPECT_EQ(feasible_rfs(analysis, cfg, options),
                prefix(compute_max_rf(analysis, cfg, options)))
          << sched->app().name() << " fb=" << fb;
    }
  }
}

/// RF 1, the midpoint and the largest feasible RF (deduplicated; empty
/// when even RF 1 does not fit).
std::vector<std::uint32_t> probe_rfs(const extract::ScheduleAnalysis& analysis,
                                     const arch::M1Config& cfg) {
  const std::uint32_t max_rf = compute_max_rf(analysis, cfg, DriverOptions{});
  std::vector<std::uint32_t> rfs;
  if (max_rf == 0) return rfs;
  for (const std::uint32_t rf : {1u, (max_rf + 1) / 2, max_rf}) {
    if (rfs.empty() || rfs.back() != rf) rfs.push_back(rf);
  }
  return rfs;
}

/// "3 7 9": a retained set as its data indices, for readable failures.
std::string ids(const extract::RetainedSet& set) {
  std::string out;
  for (const DataId d : set) out += (out.empty() ? "" : " ") + std::to_string(d.index());
  return out;
}

/// One unmemoized Figure-4 walk; the shared scratch only saves the walk's
/// allocations (the tests are single-threaded).
bool fits(const extract::ScheduleAnalysis& analysis, const arch::M1Config& cfg,
          const DriverOptions& options) {
  static PlanScratch scratch;
  return plan_round(analysis, cfg.fb_set_size, options, scratch).ok;
}

/// The paper's §4 greedy, one fresh walk per candidate: keep a candidate
/// iff the walk with it and everything kept before it still fits.
extract::RetainedSet greedy_set(const extract::ScheduleAnalysis& analysis,
                                const arch::M1Config& cfg, std::uint32_t rf) {
  DriverOptions options;
  options.rf = rf;
  for (const extract::RetentionCandidate& cand : analysis.retention_candidates()) {
    options.retained.insert(cand.data);
    if (!fits(analysis, cfg, options)) options.retained.erase(cand.data);
  }
  return options.retained;
}

/// retain_at_rf over `analysis`'s TF-ranked candidates at `rf`.
std::string searched(const extract::ScheduleAnalysis& analysis, const arch::M1Config& cfg,
                     std::uint32_t rf, bool monotone_fit) {
  PlanCache plans(analysis, cfg);
  DriverOptions options;
  options.rf = rf;
  return ids(retain_at_rf(analysis.retention_candidates(), options, monotone_fit, plans).retained);
}

TEST(RetentionSearch, EveryPrefixOfAFittingSetFits) {
  // The monotonicity the prefix search rests on, with cross-set reads off:
  // over the TF-ranked candidates, once a prefix fails every longer prefix
  // fails, and every prefix of the greedy kept set (in rank order) fits.
  int checked = 0;
  for_each_retention_case([&](const std::string& name, const model::KernelSchedule& sched,
                              const arch::M1Config& cfg) {
    const extract::ScheduleAnalysis analysis(sched, /*cross_set_reads=*/false);
    const std::vector<extract::RetentionCandidate>& cands = analysis.retention_candidates();
    for (const std::uint32_t rf : probe_rfs(analysis, cfg)) {
      DriverOptions options;
      options.rf = rf;
      bool failed = false;
      for (const extract::RetentionCandidate& cand : cands) {
        options.retained.insert(cand.data);
        const bool ok = fits(analysis, cfg, options);
        EXPECT_FALSE(failed && ok) << name << " rf=" << rf << ": a prefix fits after a "
                                   << "shorter one failed";
        failed = failed || !ok;
      }
      const extract::RetainedSet kept = greedy_set(analysis, cfg, rf);
      options.retained.clear();
      for (const extract::RetentionCandidate& cand : cands) {
        if (!kept.contains(cand.data)) continue;
        options.retained.insert(cand.data);
        EXPECT_TRUE(fits(analysis, cfg, options))
            << name << " rf=" << rf << ": a prefix of the kept set does not fit";
      }
      ++checked;
    }
  });
  EXPECT_GE(checked, 5500);
}

TEST(RetentionSearch, CdsKeepsTheGreedySet) {
  // CDS (and its joint-RF extension) ship exactly the per-candidate greedy
  // set at their RF, with cross-set reads off and on; retain_at_rf matches
  // the reference at RF 1, mid and max in both modes too.
  CompleteDataScheduler::Options joint_opts;
  joint_opts.joint_rf_retention = true;
  const CompleteDataScheduler cds;
  const CompleteDataScheduler cds_joint{joint_opts};
  int compared = 0;
  for_each_retention_case([&](const std::string& name, const model::KernelSchedule& sched,
                              const arch::M1Config& base) {
    for (const bool cross : {false, true}) {
      const arch::M1Config cfg = base.with_cross_set_reads(cross);
      const extract::ScheduleAnalysis analysis(sched, cross);
      std::map<std::uint32_t, std::string> greedy;  // by RF
      auto greedy_at = [&](std::uint32_t rf) -> const std::string& {
        auto it = greedy.find(rf);
        if (it == greedy.end()) {
          it = greedy.emplace(rf, ids(greedy_set(analysis, cfg, rf))).first;
        }
        return it->second;
      };
      for (const std::uint32_t rf : probe_rfs(analysis, cfg)) {
        EXPECT_EQ(searched(analysis, cfg, rf, !cross), greedy_at(rf))
            << name << " cross=" << cross << " rf=" << rf;
      }
      for (const CompleteDataScheduler* scheduler : {&cds, &cds_joint}) {
        const DataSchedule shipped = scheduler->schedule(analysis, cfg);
        if (!shipped.feasible) continue;
        EXPECT_EQ(ids(shipped.retained), greedy_at(shipped.rf))
            << name << " cross=" << cross << " joint=" << (scheduler == &cds_joint);
        ++compared;
      }
    }
  });
  EXPECT_GE(compared, 4 * 5500);
}

TEST(RetentionSearch, CrossSetReadsBreakMonotoneFit) {
  // With cross-set reads, retaining an object also drops its reloads on the
  // other FB set, so a longer prefix can fit where a shorter one did not.
  // On this family app at RF 2 the longest-fitting-prefix search keeps a
  // different set than greedy: the reason that mode probes one candidate
  // per walk.  With cross-set reads off the two agree.
  const workloads::RandomExperiment exp = workloads::make_random(testing::family_spec(253421));
  const arch::M1Config cross_cfg = exp.cfg.with_cross_set_reads(true);
  const extract::ScheduleAnalysis cross(exp.sched, true);
  const std::string greedy = ids(greedy_set(cross, cross_cfg, 2));
  EXPECT_EQ(searched(cross, cross_cfg, 2, /*monotone_fit=*/false), greedy);
  EXPECT_NE(searched(cross, cross_cfg, 2, /*monotone_fit=*/true), greedy);

  const extract::ScheduleAnalysis paper(exp.sched, false);
  EXPECT_EQ(searched(paper, exp.cfg, 2, /*monotone_fit=*/true),
            ids(greedy_set(paper, exp.cfg, 2)));
}

TEST(RetentionSearch, CountersAndTraceCountDecisionsNotWalks) {
  // One decision per candidate — kept or rejected, one counter tick and one
  // trace instant each, in rank order — however few walks decided them.
  // This family app keeps 11 of its 12 candidates at CDS's RF, so the run
  // takes the binary-search path as well as the whole-suffix walk.
  const workloads::RandomExperiment exp = workloads::make_random(testing::family_spec(100195));
  const extract::ScheduleAnalysis analysis(exp.sched, false);
  const std::vector<extract::RetentionCandidate>& cands = analysis.retention_candidates();

  obs::TraceRecorder recorder;
  const obs::MetricsSnapshot before = obs::snapshot();
  DataSchedule shipped;
  {
    obs::TraceSession session(recorder);
    shipped = CompleteDataScheduler{}.schedule(analysis, exp.cfg);
  }
  const obs::MetricsSnapshot delta = obs::snapshot().since(before);
  ASSERT_TRUE(shipped.feasible);

  const std::uint64_t kept = delta.counter("dsched.retention.kept");
  const std::uint64_t rejected = delta.counter("dsched.retention.rejected");
  EXPECT_EQ(kept + rejected, cands.size());
  EXPECT_EQ(kept, shipped.retained.size());
  EXPECT_GE(rejected, 1u);

  std::vector<std::string> decisions;
  for (const obs::TraceEvent& e : recorder.events()) {
    if (e.name != "dsched.retain.keep" && e.name != "dsched.retain.reject") continue;
    std::string data;
    for (const obs::TraceArg& a : e.args) {
      if (a.key == "data") data = a.value;
    }
    decisions.push_back(e.name.substr(e.name.rfind('.') + 1) + " " + data);
  }
  std::vector<std::string> expected;
  for (const extract::RetentionCandidate& cand : cands) {
    expected.push_back((shipped.retained.contains(cand.data) ? "keep " : "reject ") +
                       std::to_string(cand.data.index()));
  }
  EXPECT_EQ(decisions, expected);
}

TEST(RetentionSearch, PlanRoundsGolden) {
  // Exact count of Figure-4 walks CDS issues over the Table-1 rows and 64
  // cold-compile-family seeds (every fourth at half the FB), so a
  // regression in the walk count fails tier-1.  One walk per retention
  // candidate took 772 decision walks here (88 on Table 1); the
  // longest-fitting-prefix search makes the same 526 keeps and 1 rejection
  // in 320 (67).  Placement walks run only for the schedules that ship:
  // one per feasible schedule.
  const CompleteDataScheduler cds;
  const obs::MetricsSnapshot before = obs::snapshot();
  std::uint64_t feasible = 0;
  for (const std::string& row : workloads::table1_experiment_names()) {
    const workloads::Experiment exp = workloads::make_experiment(row);
    const extract::ScheduleAnalysis analysis(exp.sched, exp.cfg.cross_set_reads);
    feasible += cds.schedule(analysis, exp.cfg).feasible ? 1 : 0;
  }
  for (std::uint64_t i = 0; i < 64; ++i) {
    workloads::RandomSpec spec = testing::family_spec(200000 + i);
    if (i % 4 == 3) spec.fb_scale_percent = 50;
    const workloads::RandomExperiment exp = workloads::make_random(spec);
    const extract::ScheduleAnalysis analysis(exp.sched, exp.cfg.cross_set_reads);
    feasible += cds.schedule(analysis, exp.cfg).feasible ? 1 : 0;
  }
  const obs::MetricsSnapshot delta = obs::snapshot().since(before);
  EXPECT_EQ(delta.counter("dsched.plan.rounds"), 320u);
  EXPECT_EQ(delta.counter("dsched.plan.placements"), feasible);
  EXPECT_EQ(feasible, 70u);
}

}  // namespace
}  // namespace msys::dsched
