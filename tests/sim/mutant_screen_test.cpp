// Mutant screen: what the three-way oracle catches when a schedule is
// wrong in one field.
//
// Each family edits one part of a scheduler's output without re-planning:
// a load, a release, a store, a placement, the retained set or the RF.
// Every edit is run through sim::cross_check.  A mutant is caught when the
// check stops at the validator, the simulator or a prediction mismatch.
// It passes when the edit leaves a schedule the oracle accepts, e.g. a
// reordered pair of loads or a placement moved into free words.
//
// Ten families change which instances move, or where a result comes
// from, in ways no correct run survives: a dropped, duplicated or
// misdirected load, a dropped release or a release of the wrong
// iteration, a dropped or misdirected store, a store whose release-after
// flag is flipped, and an RF above the planned one.  No mutant of theirs
// may pass.  The per-(family, scheduler) caught and passed counts of every
// family are pinned in golden/mutant_screen.tsv, with a hash of where each
// mutant stopped: its CrossCheck stage and first message, folded in screen
// order.  A fault message loses MSYS_REQUIRE's " [condition]" suffix first,
// so a check's condition may be rewritten; a change to which fault a mutant
// meets first, or to its text, moves the hash.
//
// The workload is a six-kernel multimedia pipeline (FIR -> DCT ->
// quantise, SAD motion estimation, correlation, merge), run by Basic, DS
// and CDS under three partitions, 5 and 8 iterations, FB sets of 700 and
// 1024 words, CM 160 (per-slot context reloads) and 4096, and with and
// without cross-set reads: 144 schedules, ~92k mutants, ~2 s.  The two
// release families run once more at FB 2048, where DS and CDS pick an RF
// that leaves the last round partial: an instance that round never reloads
// is caught only by the simulator's end-of-run check that the Frame Buffer
// is empty.
//
// Regenerating the golden file (only when an intentional change to the
// families or to the oracle ships): run sim_test with MSYS_WRITE_GOLDEN
// set to the path of tests/sim/golden/mutant_screen.tsv.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "msys/common/hash.hpp"
#include "msys/csched/context_plan.hpp"
#include "msys/dsched/schedulers.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/model/application.hpp"
#include "msys/sim/cross_check.hpp"
#include "testing/golden_cases.hpp"
#include "testing/round_plan_edit.hpp"

namespace msys::sim {
namespace {

using dsched::DataSchedule;

/// The families no mutant may pass.
const std::set<std::string> kAlwaysFatal = {
    "drop_load",        "dup_load",           "load_wrong_iter", "load_wrong_data",
    "drop_release",     "release_wrong_iter", "drop_store",      "flip_release_after",
    "store_wrong_iter", "rf_plus"};

/// Called once per mutant with its family, a one-line label and the
/// mutated schedule.
using MutantFn =
    std::function<void(const std::string& family, const std::string& label, const DataSchedule&)>;

/// Emits every mutant of `base`.  Loads, releases and stores are edited in
/// each cluster's slice of the round plan; placements in key order; swaps and aliases only pair
/// placements of equal size (a size mismatch is a plain validator error).
void for_each_mutant(const DataSchedule& base, const extract::ScheduleAnalysis& analysis,
                     const MutantFn& visit) {
  const model::KernelSchedule& sched = *base.sched;
  const model::Application& app = sched.app();
  const auto n_clusters = static_cast<std::uint32_t>(sched.cluster_count());
  const std::uint32_t rf = base.rf;
  auto mutate = [&](const char* family, const std::string& label, const auto& edit) {
    DataSchedule m = base;
    edit(m);
    visit(family, label, m);
  };

  for (std::uint32_t c = 0; c < n_clusters; ++c) {
    const ClusterId id{c};
    const std::span<const dsched::ObjInstance> loads = base.round_plan.loads(id);
    const std::span<const dsched::StoreEvent> stores = base.round_plan.stores(id);
    const std::span<const dsched::ReleaseEvent> releases = base.round_plan.releases(id);
    const auto n_kernels = static_cast<std::uint32_t>(sched.cluster(id).kernels.size());
    const std::string cl = "Cl" + std::to_string(c + 1) + ' ';
    // Each mutant edits this cluster's slice of one of its own plan arrays.
    auto mutate_loads = [&](const char* family, const std::string& label, const auto& edit) {
      mutate(family, label, [&](DataSchedule& m) { testing::edit_loads(m.round_plan, id, edit); });
    };
    auto mutate_releases = [&](const char* family, const std::string& label, const auto& edit) {
      mutate(family, label,
             [&](DataSchedule& m) { testing::edit_releases(m.round_plan, id, edit); });
    };
    auto mutate_stores = [&](const char* family, const std::string& label, const auto& edit) {
      mutate(family, label, [&](DataSchedule& m) { testing::edit_stores(m.round_plan, id, edit); });
    };

    for (std::size_t i = 0; i < loads.size(); ++i) {
      const std::string at = cl + "load " + std::to_string(i);
      mutate_loads("drop_load", at, [&](auto& l) { l.erase(l.begin() + i); });
      mutate_loads("dup_load", at, [&](auto& l) { l.insert(l.begin() + i, loads[i]); });
      if (i + 1 < loads.size()) {
        mutate_loads("swap_loads", at, [&](auto& l) { std::swap(l[i], l[i + 1]); });
      }
      for (std::uint32_t j = 0; j < rf; ++j) {
        if (j == loads[i].iter) continue;
        mutate_loads("load_wrong_iter", at + " iter " + std::to_string(j),
                     [&](auto& l) { l[i].iter = j; });
      }
      for (const model::DataObject& d : app.data_objects()) {
        if (d.id == loads[i].data) continue;
        mutate_loads("load_wrong_data", at + " as " + d.name, [&](auto& l) { l[i].data = d.id; });
      }
    }

    for (std::size_t i = 0; i < releases.size(); ++i) {
      const dsched::ReleaseEvent& r = releases[i];
      const std::string at = cl + "release " + std::to_string(i);
      mutate_releases("drop_release", at, [&](auto& rs) { rs.erase(rs.begin() + i); });
      // One execution earlier: kernels run their iterations back to back
      // (loop fission), so the step before (k, 0) is (k - 1, RF - 1).
      if (r.trigger_iter > 0 || r.trigger_kernel > 0) {
        mutate_releases("early_release", at, [&](auto& rs) {
          dsched::ReleaseEvent& e = rs[i];
          if (e.trigger_iter > 0) {
            --e.trigger_iter;
          } else {
            --e.trigger_kernel;
            e.trigger_iter = rf - 1;
          }
        });
      }
      for (std::uint32_t j = 0; j < rf; ++j) {
        if (j != r.inst.iter) {
          mutate_releases("release_wrong_iter", at + " iter " + std::to_string(j),
                          [&](auto& rs) { rs[i].inst.iter = j; });
        }
        if (j != r.trigger_iter) {
          mutate_releases("release_trigger_iter", at + " after iter " + std::to_string(j),
                          [&](auto& rs) { rs[i].trigger_iter = j; });
        }
      }
      for (std::uint32_t k = 0; k < n_kernels; ++k) {
        if (k == r.trigger_kernel) continue;
        mutate_releases("release_trigger_kernel", at + " after kernel " + std::to_string(k),
                        [&](auto& rs) { rs[i].trigger_kernel = k; });
      }
      for (std::uint32_t other = 0; other < n_clusters; ++other) {
        if (ClusterId{other} == r.placement_cluster) continue;
        mutate_releases("release_placement_cluster", at + " keyed Cl" + std::to_string(other + 1),
                        [&](auto& rs) { rs[i].placement_cluster = ClusterId{other}; });
      }
    }

    for (std::size_t i = 0; i < stores.size(); ++i) {
      const std::string at = cl + "store " + std::to_string(i);
      mutate_stores("drop_store", at, [&](auto& st) { st.erase(st.begin() + i); });
      mutate_stores("flip_release_after", at,
                    [&](auto& st) { st[i].release_after = !st[i].release_after; });
      for (std::uint32_t j = 0; j < rf; ++j) {
        if (j == stores[i].inst.iter) continue;
        mutate_stores("store_wrong_iter", at + " iter " + std::to_string(j),
                      [&](auto& st) { st[i].inst.iter = j; });
      }
      if (i + 1 < stores.size()) {
        mutate_stores("swap_stores", at, [&](auto& st) { std::swap(st[i], st[i + 1]); });
      }
    }
  }

  // Records are in key order; every mutant edits its own copy of them (and
  // of the extent array they share).
  const std::vector<dsched::PlacementRecord>& records = base.placements;
  auto name = [&](const dsched::PlacementRecord& p) {
    const auto [cluster, inst] = DataSchedule::unkey(p.key);
    return "Cl" + std::to_string(cluster.index() + 1) + ':' + app.data(inst.data).name + '#' +
           std::to_string(inst.iter);
  };
  auto same_place = [&](const dsched::PlacementRecord& a, const dsched::PlacementRecord& b) {
    return a.set == b.set && std::ranges::equal(base.extents_of(a), base.extents_of(b));
  };
  for (std::size_t i = 0; i < records.size(); ++i) {
    const dsched::PlacementRecord& p = records[i];
    const std::span<const Extent> extents = base.extents_of(p);
    for (const int delta : {-1, 1}) {
      if (delta < 0 && std::any_of(extents.begin(), extents.end(),
                                   [](const Extent& e) { return e.addr == 0; })) {
        continue;
      }
      mutate("placement_shift", name(p) + (delta < 0 ? " -1" : " +1"), [&](DataSchedule& m) {
        for (std::uint32_t k = 0; k < p.extent_count; ++k) {
          m.extents[p.extent_begin + k].addr += delta;
        }
      });
    }
    mutate("placement_flip_set", name(p), [&](DataSchedule& m) {
      dsched::PlacementRecord& q = m.placements[i];
      q.set = other_set(q.set);
    });
    for (std::size_t j = 0; j < records.size(); ++j) {
      const dsched::PlacementRecord& o = records[j];
      if (j == i || total_size(base.extents_of(o)) != total_size(extents) || same_place(p, o)) {
        continue;
      }
      const std::string pair = name(p) + " / " + name(o);
      // A placement is its set and extent range; the key stays with the
      // instance.
      auto place_as = [](dsched::PlacementRecord& to, const dsched::PlacementRecord& from) {
        to.set = from.set;
        to.extent_begin = from.extent_begin;
        to.extent_count = from.extent_count;
      };
      if (i < j) {
        mutate("placement_swap", pair, [&](DataSchedule& m) {
          place_as(m.placements[i], o);
          place_as(m.placements[j], p);
        });
      }
      mutate("placement_alias", pair, [&](DataSchedule& m) { place_as(m.placements[i], o); });
    }
  }

  for (const extract::RetentionCandidate& cand : analysis.retention_candidates()) {
    const DataId d = cand.data;
    const bool retained = base.retained.contains(d);
    mutate(retained ? "unretain" : "retain", app.data(d).name, [&](DataSchedule& m) {
      if (retained) {
        m.retained.erase(d);
      } else {
        m.retained.insert(d);
      }
    });
  }
  if (rf > 1) mutate("rf_minus", "", [](DataSchedule& m) { --m.rf; });
  if (rf < app.total_iterations()) mutate("rf_plus", "", [](DataSchedule& m) { ++m.rf; });
}

/// The six-kernel pipeline.  Object sizes are those of a FIR (8 taps over
/// 71 samples), an 8x8 DCT, a quantiser, an 8x8 SAD search over a 16x16
/// window, an 8x8 correlation and a 64-word merge.
std::unique_ptr<model::Application> pipeline(std::uint32_t iterations) {
  model::ApplicationBuilder b("mutant-screen", iterations);
  const DataId sig = b.external_input("sig", SizeWords{71});
  const DataId fcoef = b.external_input("fcoef", SizeWords{8});
  const KernelId fir = b.kernel("fir", 32, Cycles{200}, {sig, fcoef});
  const DataId firout = b.output(fir, "firout", SizeWords{64});

  const DataId cur = b.external_input("cur", SizeWords{64});
  const DataId ref = b.external_input("ref", SizeWords{256});
  const KernelId sad_k = b.kernel("sad", 40, Cycles{300}, {cur, ref});
  const DataId sad = b.output(sad_k, "sad", SizeWords{64});
  b.output(sad_k, "best", SizeWords{1}, /*final=*/true);

  const DataId dcoef = b.external_input("dcoef", SizeWords{64});
  const KernelId dct = b.kernel("dct", 36, Cycles{250}, {firout, dcoef});
  const DataId coefblk = b.output(dct, "coefblk", SizeWords{64});

  const DataId gain = b.external_input("gain", SizeWords{1});
  const KernelId q = b.kernel("q", 24, Cycles{120}, {coefblk, gain});
  const DataId qblk = b.output(q, "qblk", SizeWords{64}, /*final=*/true);

  const DataId img = b.external_input("img", SizeWords{256});
  const KernelId corr = b.kernel("corr", 40, Cycles{300}, {qblk, img});
  const DataId score = b.output(corr, "score", SizeWords{64});

  const KernelId sum = b.kernel("sum", 16, Cycles{80}, {sad, score});
  b.output(sum, "final", SizeWords{64}, /*final=*/true);
  return std::make_unique<model::Application>(std::move(b).build());
}

/// Kernel ids in builder order: fir, sad, dct, q, corr, sum.
const std::vector<std::vector<std::vector<std::uint32_t>>> kPartitions = {
    {{0}, {1}, {2, 3}, {4, 5}},      // four clusters, two of them pairs
    {{0}, {1}, {2}, {3}, {4}, {5}},  // one kernel per cluster
    {{0, 1}, {2}, {3, 4}, {5}},      // pairs across the two chains
};

struct ScreenConfig {
  std::size_t partition;
  std::uint32_t iterations;
  std::uint64_t fb_words;
  bool cross_set;
  std::uint32_t cm_words;

  [[nodiscard]] std::string name() const {
    return "P" + std::to_string(partition) + " it" + std::to_string(iterations) + " fb" +
           std::to_string(fb_words) + (cross_set ? " xset" : "") + " cm" +
           std::to_string(cm_words);
  }
};

std::vector<ScreenConfig> screen_configs(const std::vector<std::uint64_t>& fb_sizes) {
  std::vector<ScreenConfig> configs;
  for (std::size_t partition = 0; partition < kPartitions.size(); ++partition) {
    for (const std::uint32_t iterations : {5u, 8u}) {
      for (const std::uint64_t fb_words : fb_sizes) {
        for (const bool cross_set : {false, true}) {
          for (const std::uint32_t cm_words : {160u, 4096u}) {
            configs.push_back({partition, iterations, fb_words, cross_set, cm_words});
          }
        }
      }
    }
  }
  return configs;
}

/// One configuration's application, partition, machine and analysis.
struct Screened {
  std::unique_ptr<model::Application> app;
  std::optional<model::KernelSchedule> sched;
  arch::M1Config cfg;
  std::optional<extract::ScheduleAnalysis> analysis;
  std::optional<csched::ContextPlan> ctx_plan;

  explicit Screened(const ScreenConfig& c) : app(pipeline(c.iterations)) {
    std::vector<std::vector<KernelId>> partition;
    for (const auto& cluster : kPartitions[c.partition]) {
      partition.emplace_back();
      for (const std::uint32_t k : cluster) partition.back().push_back(KernelId{k});
    }
    sched.emplace(model::KernelSchedule::from_partition(*app, std::move(partition)));
    arch::M1Config m = arch::M1Config::m1_default();
    m.fb_set_size = SizeWords{c.fb_words};
    m.cm_capacity_words = c.cm_words;
    cfg = arch::M1Config::validated(m).with_cross_set_reads(c.cross_set);
    analysis.emplace(*sched, c.cross_set);
    ctx_plan.emplace(csched::ContextPlan::build(*sched, cfg.cm_capacity_words));
  }
};

struct Tally {
  std::uint64_t caught{0};
  std::uint64_t passed{0};
  /// Each mutant's stage and first message, in screen order.
  Hasher faults;
};

/// Where a check stopped: its first diagnostic (the mismatch text when it
/// has none), without MSYS_REQUIRE's " [condition]" suffix.
std::string first_message(const CrossCheck& check) {
  if (check.diagnostics.empty()) return check.mismatch;
  const std::string& message = check.diagnostics.front().message;
  if (!message.starts_with("MSYS_REQUIRE failed: ")) return message;
  return message.substr(0, message.find(" ["));
}

struct Screen {
  /// (family, scheduler) -> counts.
  std::map<std::pair<std::string, std::string>, Tally> tallies;
  /// One line per passing mutant of an always-fatal family.
  std::string fatal_passes;
};

/// Runs the mutants of `families` (every family when empty) of each
/// scheduler's schedule of each config through cross_check.
Screen run_screen(const std::vector<ScreenConfig>& configs,
                  const std::set<std::string>& families = {}) {
  Screen screen;
  for (const ScreenConfig& config : configs) {
    const Screened s(config);
    // Each schedule, mutants included, is checked against its own price.
    auto check = [&](const DataSchedule& schedule) {
      return cross_check(schedule, dsched::predict_cost(schedule, s.cfg, *s.ctx_plan),
                         *s.analysis, s.cfg, *s.ctx_plan);
    };
    for (const auto& scheduler : dsched::all_schedulers()) {
      const DataSchedule base = scheduler->schedule(*s.analysis, s.cfg);
      EXPECT_TRUE(base.feasible) << config.name() << ' ' << scheduler->name();
      const CrossCheck unmutated = check(base);
      EXPECT_TRUE(unmutated.ok()) << config.name() << ' ' << scheduler->name() << ": "
                                  << unmutated.why();
      if (!base.feasible || !unmutated.ok()) continue;
      for_each_mutant(base, *s.analysis,
                      [&](const std::string& family, const std::string& label,
                          const DataSchedule& mutant) {
                        if (!families.empty() && !families.contains(family)) return;
                        const CrossCheck result = check(mutant);
                        const bool caught = !result.ok();
                        Tally& t = screen.tallies[{family, scheduler->name()}];
                        ++(caught ? t.caught : t.passed);
                        hash_append(t.faults, result.stage);
                        hash_append(t.faults, first_message(result));
                        if (!caught && kAlwaysFatal.contains(family)) {
                          screen.fatal_passes += config.name() + ' ' + scheduler->name() +
                                                 ' ' + family + ' ' + label + '\n';
                        }
                      });
    }
  }
  return screen;
}

/// Sum of the caught counts of `family` over every scheduler.
std::uint64_t caught_in(const Screen& screen, const std::string& family) {
  std::uint64_t caught = 0;
  for (const auto& [key, t] : screen.tallies) caught += key.first == family ? t.caught : 0;
  return caught;
}

TEST(MutantScreen, OracleCatchesEveryFatalMutant) {
  const Screen screen = run_screen(screen_configs({700, 1024}));
  EXPECT_EQ(screen.fatal_passes, "") << "mutants of always-fatal families passed cross_check";
  for (const std::string& family : kAlwaysFatal) {
    EXPECT_GT(caught_in(screen, family), 0u) << family << " produced no mutant";
  }

  testing::GoldenTable current;
  for (const auto& [key, t] : screen.tallies) {
    current.emplace(key, std::to_string(t.caught) + '\t' + std::to_string(t.passed) + '\t' +
                             testing::hex(t.faults.finalize()));
  }
  if (const char* write_path = std::getenv("MSYS_WRITE_GOLDEN")) {
    if (std::string(write_path).ends_with("mutant_screen.tsv")) {
      ASSERT_TRUE(testing::write_golden(write_path,
                                        "family\tscheduler\tcaught\tpassed\tfault-hash — see "
                                        "mutant_screen_test.cpp; regenerate only with an "
                                        "intentional change to the families or the oracle",
                                        current))
          << write_path;
      GTEST_SKIP() << "golden file rewritten: " << write_path;
    }
  }
  std::string error;
  const testing::GoldenTable golden = testing::read_golden(MSYS_MUTANT_GOLDEN_FILE, error);
  ASSERT_EQ(error, "");
  for (const auto& [key, value] : current) {
    const auto it = golden.find(key);
    EXPECT_TRUE(it != golden.end() && it->second == value)
        << key.first << " / " << key.second << ": caught/passed/fault-hash " << value
        << ", golden " << (it == golden.end() ? "none" : it->second);
  }
  EXPECT_EQ(golden.size(), current.size()) << "a family or scheduler left the screen";
}

TEST(MutantScreen, ReleaseMutantsFailWhenTheLastRoundIsPartial) {
  // FB 2048 lets DS and CDS pick RF 3, so 5 iterations end in a round of 2:
  // an instance of iteration 2 that is never freed is never reloaded over
  // either, and only the end-of-run residency check sees it.
  const Screen screen =
      run_screen(screen_configs({2048}), {"drop_release", "flip_release_after"});
  EXPECT_EQ(screen.fatal_passes, "") << "release mutants passed cross_check";
  for (const char* family : {"drop_release", "flip_release_after"}) {
    EXPECT_GT(caught_in(screen, family), 0u) << family << " produced no mutant";
  }
}

}  // namespace
}  // namespace msys::sim
