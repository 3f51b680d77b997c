// Context Scheduler (after Maestre et al. [4]): decides when kernel
// contexts are (re)loaded into the Context Memory and whether those loads
// can overlap RC-array computation.
//
// Model: contexts are loaded at cluster granularity, once per execution
// slot (one slot = RF consecutive iterations of one cluster).  Three
// regimes, picked from CM capacity:
//
//   kPersistent      — every kernel's contexts fit the CM simultaneously:
//                      each cluster's contexts are loaded once, in its
//                      first slot, and stay for the whole run.
//   kPerSlotOverlap  — the CM cannot hold all clusters but can hold any
//                      two adjacent clusters at once: each slot's contexts
//                      are prefetched during the previous slot, fully
//                      overlapped with computation (DMA permitting).
//   kPerSlotSerial   — the CM can hold only the executing cluster: context
//                      loads cannot start until the previous slot's
//                      execution finishes, so they serialise with
//                      computation.
//
// Infeasible when even a single cluster's contexts exceed the CM.
#pragma once

#include <cstdint>
#include <string>

#include "msys/arch/m1.hpp"
#include "msys/model/schedule.hpp"

namespace msys::csched {

enum class ContextRegime : std::uint8_t {
  kPersistent,
  kPerSlotOverlap,
  kPerSlotSerial,
};

[[nodiscard]] std::string to_string(ContextRegime regime);

class ContextPlan {
 public:
  /// Builds the plan for `sched` on a CM of `cm_capacity_words`.
  [[nodiscard]] static ContextPlan build(const model::KernelSchedule& sched,
                                         std::uint32_t cm_capacity_words);

  [[nodiscard]] bool feasible() const { return feasible_; }
  [[nodiscard]] const std::string& infeasible_reason() const { return reason_; }
  [[nodiscard]] ContextRegime regime() const { return regime_; }

  /// Context words DMA-loaded before slot (round, cluster) executes
  /// (0 when already resident).  The answer depends on the round only
  /// through round == 0: every round after the first loads the same
  /// words, which dsched::predict_cost relies on to ask once per cluster
  /// about rounds 0 and 1.
  [[nodiscard]] std::uint32_t words_for_slot(std::uint32_t round, ClusterId cluster) const;

  /// True when the slot's context load may overlap the previous slot's
  /// computation.
  [[nodiscard]] bool overlaps_compute() const {
    return regime_ != ContextRegime::kPerSlotSerial;
  }

  /// Total context words transferred over `rounds` rounds.
  [[nodiscard]] std::uint64_t total_context_words(std::uint32_t rounds) const;

 private:
  const model::KernelSchedule* sched_{nullptr};
  bool feasible_{false};
  std::string reason_;
  ContextRegime regime_{ContextRegime::kPerSlotSerial};
};

}  // namespace msys::csched
