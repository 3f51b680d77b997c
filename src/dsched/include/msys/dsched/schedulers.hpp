// The three data schedulers the paper evaluates.
//
//   BasicScheduler        — Maestre et al. [3]: kernel scheduling with a
//                           tentative data schedule.  No replacement (a
//                           cluster needs space for all data and results
//                           simultaneously), no loop fission (RF = 1), no
//                           inter-cluster retention.
//   DataScheduler         — Sanchez-Elez et al. [5]: §3's within-cluster
//                           replacement maximises FB free space, which is
//                           spent on RF consecutive iterations, dividing
//                           context reloads by RF.  Data transfers are
//                           unchanged.
//   CompleteDataScheduler — this paper: DataScheduler + §4's inter-cluster
//                           retention.  Shared data and shared results are
//                           kept FB-resident in descending TF order as
//                           long as every cluster still fits its FB set,
//                           avoiding external-memory round trips.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "msys/arch/m1.hpp"
#include "msys/common/cancel.hpp"
#include "msys/dsched/alloc_driver.hpp"
#include "msys/dsched/schedule_types.hpp"
#include "msys/extract/analysis.hpp"

namespace msys::dsched {

class PlanCache;

class DataSchedulerBase {
 public:
  virtual ~DataSchedulerBase() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Produces the data schedule (possibly infeasible) for the analysis and
  /// machine of `plans`, deciding through that memo (a pipeline hands one
  /// to every rung).  `cancel` is polled at the RF-scan and
  /// retention-loop boundaries; a firing yields a cancelled (infeasible)
  /// schedule rather than an exception.
  [[nodiscard]] virtual DataSchedule schedule(PlanCache& plans,
                                              const CancelToken& cancel) const = 0;
  /// Same, on a plan memo of its own for `analysis` on machine `cfg`.
  [[nodiscard]] DataSchedule schedule(const extract::ScheduleAnalysis& analysis,
                                      const arch::M1Config& cfg,
                                      const CancelToken& cancel = {}) const;
};

class BasicScheduler final : public DataSchedulerBase {
 public:
  using DataSchedulerBase::schedule;
  [[nodiscard]] std::string name() const override { return "Basic"; }
  [[nodiscard]] DataSchedule schedule(PlanCache& plans, const CancelToken& cancel) const override;
};

class DataScheduler final : public DataSchedulerBase {
 public:
  using DataSchedulerBase::schedule;
  [[nodiscard]] std::string name() const override { return "DS"; }
  [[nodiscard]] DataSchedule schedule(PlanCache& plans, const CancelToken& cancel) const override;
};

class CompleteDataScheduler final : public DataSchedulerBase {
 public:
  /// Knobs for the ablation benchmarks; defaults reproduce the paper.
  struct Options {
    /// Retention ranking: the paper's TF ordering (absolute words saved),
    /// or the ablation alternatives — candidate declaration order,
    /// biggest-size-first, and savings *density* (transfers avoided per
    /// occupied byte), which can beat plain TF when candidates compete
    /// for FB space.
    enum class Ranking { kTimeFactor, kDeclarationOrder, kSizeFirst, kDensity };
    Ranking ranking{Ranking::kTimeFactor};
    /// Paper behaviour (false): secure the cheapest RF first, then retain
    /// greedily in whatever space is left.  Extension (true): evaluate the
    /// greedy retention at *every* feasible RF and keep the (RF, retained
    /// set) pair with the lowest predicted cost — a lower RF with more
    /// retention often beats the maximal RF (see bench/ablation_joint).
    bool joint_rf_retention{false};
  };

  CompleteDataScheduler() = default;
  explicit CompleteDataScheduler(Options options) : options_(options) {}

  using DataSchedulerBase::schedule;
  [[nodiscard]] std::string name() const override { return "CDS"; }
  [[nodiscard]] DataSchedule schedule(PlanCache& plans, const CancelToken& cancel) const override;

  /// schedule()'s RF and retained set, decided through the caller's memo
  /// `plans`; nullopt when even RF = 1 does not fit.  If `cancel` fires the
  /// result is partial; the caller checks the token.
  [[nodiscard]] std::optional<DriverOptions> decide(PlanCache& plans,
                                                    const CancelToken& cancel = {}) const;

 private:
  Options options_{};
};

/// Largest common RF (<= total_iterations) for which the decision walk
/// succeeds on both FB sets with the given base options; returns 0 when
/// even RF = 1 does not fit.  Feasibility is monotone in RF, so the search
/// is an exponential probe + binary search — O(log max_rf) walks, not the
/// O(max_rf) linear scan it replaces (behaviour-identical; see
/// tests/dsched/rf_search_property_test.cpp).  If `cancel` fires mid-search
/// the best *known-feasible* RF so far is returned (conservative, never
/// wrong); the caller's own checkpoint decides whether to abandon the run.
[[nodiscard]] std::uint32_t compute_max_rf(const extract::ScheduleAnalysis& analysis,
                                           const arch::M1Config& cfg,
                                           DriverOptions base_options,
                                           const CancelToken& cancel = {});

/// Same search against a caller-owned plan memo, so a scheduler's later
/// re-plans at probed RFs become cache hits instead of fresh walks.
[[nodiscard]] std::uint32_t compute_max_rf(PlanCache& plans, DriverOptions base_options,
                                           const CancelToken& cancel = {});

/// §4's greedy retention at the fixed RF `options.rf` (which must fit
/// with nothing retained): keeps each of `candidates`, in order, iff the
/// decision walk with it and every candidate kept before it still fits,
/// and rejects the rest.  Returns `options` with the kept set, which was
/// decided through `plans`, so the caller prices it from the memo.
/// `monotone_fit` (true unless the machine reads across FB sets) decides
/// a run of keeps in one walk and each rejection in O(log k) walks; false
/// walks once per candidate.  If `cancel` fires, the candidates decided so
/// far stay decided and the rest are dropped.
[[nodiscard]] DriverOptions retain_at_rf(std::span<const extract::RetentionCandidate> candidates,
                                         DriverOptions options, bool monotone_fit,
                                         PlanCache& plans, const CancelToken& cancel = {});

/// All three schedulers, in Basic, DS, CDS order (reporting convenience).
[[nodiscard]] std::vector<std::unique_ptr<DataSchedulerBase>> all_schedulers();

}  // namespace msys::dsched
