// Property tests over randomly generated workloads: for every seed the
// full pipeline (analysis -> scheduling -> code generation -> simulation
// with functional checking) must hold its invariants, and the analytic
// cost model must agree with the simulator cycle-for-cycle.
#include <gtest/gtest.h>

#include "msys/report/runner.hpp"
#include "msys/workloads/random.hpp"

namespace msys::report {
namespace {

class RandomPipeline : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPipeline, AllInvariantsHold) {
  workloads::RandomSpec spec;
  spec.seed = GetParam();
  workloads::RandomExperiment exp = workloads::make_random(spec);

  // run_experiment internally asserts predicted == simulated for every
  // scheduler and the simulator performs full functional checking.
  ExperimentResult r = run_experiment("random", exp.sched, exp.cfg);

  ASSERT_TRUE(r.basic.feasible());
  ASSERT_TRUE(r.ds.feasible());
  ASSERT_TRUE(r.cds.feasible());

  // Ordering: T_cds <= T_ds <= T_basic.
  EXPECT_LE(r.ds.cycles(), r.basic.cycles());
  EXPECT_LE(r.cds.cycles(), r.ds.cycles());

  // Retention only removes traffic, never adds.
  EXPECT_LE(r.cds.predicted().data_words_total(), r.ds.predicted().data_words_total());
  EXPECT_EQ(r.cds.predicted().context_words, r.ds.predicted().context_words);

  // The RC array executes exactly kernels x iterations, no matter the
  // scheduler.
  const std::uint64_t expected_execs =
      static_cast<std::uint64_t>(exp.app->kernel_count()) * exp.app->total_iterations();
  for (const SchedulerOutcome* o : {&r.basic, &r.ds, &r.cds}) {
    ASSERT_TRUE(o->measured.has_value());
    EXPECT_EQ(o->measured->exec_count, expected_execs) << o->scheduler;
    // Peak residency within the FB sets and CM.
    EXPECT_LE(o->measured->max_resident_words[0], exp.cfg.fb_set_size.value());
    EXPECT_LE(o->measured->max_resident_words[1], exp.cfg.fb_set_size.value());
    EXPECT_LE(o->measured->max_cm_words, exp.cfg.cm_capacity_words);
  }

  // Every final result reaches external memory under every scheduler:
  // stored words cover (final result sizes) x iterations.
  std::uint64_t final_words = 0;
  for (const model::DataObject& d : exp.app->data_objects()) {
    if (d.required_in_external_memory) final_words += d.size.value();
  }
  for (const SchedulerOutcome* o : {&r.basic, &r.ds, &r.cds}) {
    EXPECT_GE(o->predicted().data_words_stored,
              final_words * exp.app->total_iterations())
        << o->scheduler;
  }
}

TEST_P(RandomPipeline, ShrunkMachineDegradesGracefully) {
  workloads::RandomSpec spec;
  spec.seed = GetParam() ^ 0x5eed;
  workloads::RandomExperiment exp = workloads::make_random(spec);

  // Walk the FB size down; schedulers must either produce a valid,
  // simulation-clean schedule or report infeasibility — never crash.
  for (std::uint64_t divisor : {1, 2, 3, 5, 9, 17}) {
    arch::M1Config cfg = exp.cfg;
    cfg.fb_set_size = SizeWords{std::max<std::uint64_t>(
        exp.cfg.fb_set_size.value() / divisor, 16)};
    ExperimentResult r = run_experiment("random-shrunk", exp.sched, cfg);
    if (r.basic.feasible() && r.ds.feasible()) {
      EXPECT_LE(r.ds.cycles(), r.basic.cycles());
    }
    if (r.ds.feasible() && r.cds.feasible()) {
      EXPECT_LE(r.cds.cycles(), r.ds.cycles());
    }
    // The §3 replacement policy never needs more space than no-release.
    if (r.basic.feasible()) {
      EXPECT_TRUE(r.ds.feasible());
    }
  }
}

TEST_P(RandomPipeline, DeterministicForSeed) {
  workloads::RandomSpec spec;
  spec.seed = GetParam();
  workloads::RandomExperiment a = workloads::make_random(spec);
  workloads::RandomExperiment b = workloads::make_random(spec);
  EXPECT_EQ(a.app->kernel_count(), b.app->kernel_count());
  EXPECT_EQ(a.app->data_count(), b.app->data_count());
  EXPECT_EQ(a.app->total_data_size(), b.app->total_data_size());
  EXPECT_EQ(a.sched.cluster_count(), b.sched.cluster_count());
  ExperimentResult ra = run_experiment("a", a.sched, a.cfg);
  ExperimentResult rb = run_experiment("b", b.sched, b.cfg);
  EXPECT_EQ(ra.cds.cycles(), rb.cds.cycles());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPipeline,
                         ::testing::Range<std::uint64_t>(1, 26));

}  // namespace
}  // namespace msys::report
