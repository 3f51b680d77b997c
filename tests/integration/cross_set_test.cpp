// Tests for the cross-set reuse extension (paper §7 future work): with
// arch::M1Config::cross_set_reads, retained objects are read in place by
// clusters on either FB set.
#include <gtest/gtest.h>

#include "msys/extract/analysis.hpp"
#include "msys/report/runner.hpp"
#include "msys/workloads/experiments.hpp"
#include "msys/workloads/random.hpp"
#include "testing/apps.hpp"

namespace msys::report {
namespace {

using extract::RetentionCandidate;
using extract::ScheduleAnalysis;
using testing::TwoClusterApp;

/// Three single-kernel clusters; `shared` read by k1 (Cl1, A) and k2
/// (Cl2, B); Cl3 (A) anchors the safe release.
struct CrossSharedApp {
  std::unique_ptr<model::Application> app;
  model::KernelSchedule sched;

  static CrossSharedApp make(std::uint32_t iterations = 6) {
    model::ApplicationBuilder b("cross-shared", iterations);
    DataId shared = b.external_input("shared", SizeWords{40});
    std::vector<KernelId> ks;
    for (int i = 1; i <= 3; ++i) {
      DataId priv = b.external_input("in" + std::to_string(i), SizeWords{50});
      KernelId k = b.kernel("k" + std::to_string(i), 24, Cycles{120}, {priv});
      b.output(k, "out" + std::to_string(i), SizeWords{25}, true);
      ks.push_back(k);
    }
    b.add_input(ks[0], shared);  // Cl1 (A)
    b.add_input(ks[1], shared);  // Cl2 (B)
    auto app = std::make_unique<model::Application>(std::move(b).build());
    model::KernelSchedule sched =
        model::KernelSchedule::from_partition(*app, {{ks[0]}, {ks[1]}, {ks[2]}});
    return CrossSharedApp{std::move(app), std::move(sched)};
  }
};

TEST(CrossSet, SharedInputBecomesACandidate) {
  // `shared` is read by Cl1(A) and Cl2(B): invisible to the paper's CDS,
  // a candidate under cross-set reads (release anchored at Cl3 on A).
  CrossSharedApp t = CrossSharedApp::make();
  ScheduleAnalysis plain(t.sched, /*cross_set_reads=*/false);
  EXPECT_TRUE(plain.retention_candidates().empty());

  ScheduleAnalysis cross(t.sched, /*cross_set_reads=*/true);
  ASSERT_EQ(cross.retention_candidates().size(), 1u);
  const RetentionCandidate& cand = cross.retention_candidates().front();
  EXPECT_EQ(cand.data, *t.app->find_data("shared"));
  EXPECT_EQ(cand.set, FbSet::kA);  // home = first consumer's set
  EXPECT_EQ(cand.n_users, 2u);
  EXPECT_EQ(cand.transfers_avoided, 1u);
  // Span runs from the first consumer through the release anchor Cl3.
  EXPECT_EQ(cand.occupancy_span.back(), ClusterId{2});
}

TEST(CrossSet, TwoClustersHaveNoSafeAnchor) {
  // With only two clusters the cross-set consumer is the last cluster of
  // the round: no later home-set cluster can anchor the release, so the
  // extension must refuse the candidate.
  TwoClusterApp t = TwoClusterApp::make();
  ScheduleAnalysis cross(t.sched, /*cross_set_reads=*/true);
  EXPECT_FALSE(cross.is_candidate(*t.app->find_data("shared")));
}

TEST(CrossSet, NoSafeReleasePointDisqualifies) {
  // A result produced by the round's LAST home-set cluster and consumed
  // only by the final other-set cluster has no later home-set cluster to
  // anchor its release: it must not become a candidate.
  model::ApplicationBuilder b("x", 2);
  DataId d1 = b.external_input("d1", SizeWords{20});
  KernelId k1 = b.kernel("k1", 8, Cycles{50}, {d1});
  DataId r = b.output(k1, "r", SizeWords{30});
  DataId d2 = b.external_input("d2", SizeWords{20});
  KernelId k2 = b.kernel("k2", 8, Cycles{50}, {d2, r});
  b.output(k2, "out", SizeWords{10}, true);
  model::Application app = std::move(b).build();
  model::KernelSchedule sched =
      model::KernelSchedule::from_partition(app, {{k1}, {k2}});
  ScheduleAnalysis cross(sched, true);
  EXPECT_FALSE(cross.is_candidate(r));
}

TEST(CrossSet, SpanExtendsToNextHomeCluster) {
  // r produced in Cl1(A), consumed only by Cl2(B): safe release anchors at
  // Cl3(A), so the span is {Cl1, Cl3}.
  model::ApplicationBuilder b("x", 2);
  DataId d1 = b.external_input("d1", SizeWords{20});
  KernelId k1 = b.kernel("k1", 8, Cycles{50}, {d1});
  DataId r = b.output(k1, "r", SizeWords{30});
  std::vector<KernelId> ks = {k1};
  for (int i = 2; i <= 3; ++i) {
    DataId d = b.external_input("d" + std::to_string(i), SizeWords{20});
    KernelId k = b.kernel("k" + std::to_string(i), 8, Cycles{50}, {d});
    b.output(k, "out" + std::to_string(i), SizeWords{10}, true);
    ks.push_back(k);
  }
  b.add_input(ks[1], r);  // k2, Cl2, set B
  model::Application app = std::move(b).build();
  model::KernelSchedule sched =
      model::KernelSchedule::from_partition(app, {{ks[0]}, {ks[1]}, {ks[2]}});
  ScheduleAnalysis cross(sched, true);
  ASSERT_TRUE(cross.is_candidate(r));
  const RetentionCandidate& cand = cross.candidate_for(r);
  EXPECT_FALSE(cand.store_required);  // nothing needs it in external memory
  EXPECT_EQ(cand.transfers_avoided, 2u);
  ASSERT_EQ(cand.occupancy_span.size(), 2u);
  EXPECT_EQ(cand.occupancy_span.front(), ClusterId{0});
  EXPECT_EQ(cand.occupancy_span.back(), ClusterId{2});
}

TEST(CrossSet, EndToEndEliminatesCrossSetTraffic) {
  // Cross-set reads retain `shared`, dropping one load per iteration; the
  // simulator validates every read.
  CrossSharedApp t = CrossSharedApp::make(/*iterations=*/6);
  arch::M1Config plain_cfg = testing::test_cfg(1024);
  arch::M1Config cross_cfg = plain_cfg.with_cross_set_reads(true);

  SchedulerOutcome plain = run_scheduler(t.sched, plain_cfg);
  SchedulerOutcome cross = run_scheduler(t.sched, cross_cfg);
  ASSERT_TRUE(plain.feasible());
  ASSERT_TRUE(cross.feasible());
  EXPECT_TRUE(plain.schedule().retained.empty());
  EXPECT_EQ(cross.schedule().retained.size(), 1u);
  // One 40-word `shared` load per iteration disappears.
  EXPECT_EQ(plain.predicted().data_words_loaded - cross.predicted().data_words_loaded,
            40u * 6);
  EXPECT_LE(cross.predicted().total, plain.predicted().total);
}

TEST(CrossSet, MpegStoreOfPredDisappears) {
  // On the MPEG pipeline, `pred` (A) feeds DCT (B) and REC (A): the paper
  // machine must store+reload it for DCT; with cross-set reads the store
  // disappears entirely.
  workloads::Experiment exp = workloads::make_experiment("MPEG");
  SchedulerOutcome plain = run_scheduler(exp.sched, exp.cfg);
  arch::M1Config cross_cfg = exp.cfg.with_cross_set_reads(true);
  SchedulerOutcome cross = run_scheduler(exp.sched, cross_cfg);
  ASSERT_TRUE(plain.feasible());
  ASSERT_TRUE(cross.feasible());
  EXPECT_LT(cross.predicted().data_words_total(), plain.predicted().data_words_total());
  EXPECT_LE(cross.predicted().total, plain.predicted().total);
}

class CrossSetRegistry : public ::testing::TestWithParam<std::string> {};

TEST_P(CrossSetRegistry, NeverWorseThanPaperMachine) {
  workloads::Experiment exp = workloads::make_experiment(GetParam());
  SchedulerOutcome plain = run_scheduler(exp.sched, exp.cfg);
  SchedulerOutcome cross = run_scheduler(exp.sched, exp.cfg.with_cross_set_reads(true));
  if (!plain.feasible() || !cross.feasible()) GTEST_SKIP();
  EXPECT_LE(cross.predicted().data_words_total(), plain.predicted().data_words_total());
}

INSTANTIATE_TEST_SUITE_P(AllExperiments, CrossSetRegistry,
                         ::testing::ValuesIn(workloads::table1_experiment_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '*') c = 's';
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

class CrossSetRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossSetRandom, PipelineInvariantsHoldWithCrossSetReads) {
  workloads::RandomSpec spec;
  spec.seed = GetParam() * 977 + 5;
  workloads::RandomExperiment exp = workloads::make_random(spec);
  arch::M1Config cfg = exp.cfg.with_cross_set_reads(true);
  // run_experiment asserts prediction == simulation; the simulator
  // functionally validates every cross-set read.
  ExperimentResult r = run_experiment("random-cross", exp.sched, cfg);
  ASSERT_TRUE(r.cds.feasible());
  EXPECT_LE(r.cds.cycles(), r.ds.cycles());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossSetRandom, ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace msys::report
