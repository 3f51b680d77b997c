// Kernel Scheduler (after Maestre et al. [7], [3]): explores the space of
// cluster partitions to find the kernel sequence that minimises estimated
// execution time, where the estimate comes from running a data scheduler
// and the analytic cost model on each candidate (the paper's "tentative
// context and data schedules").
//
// Candidates are contiguous partitions of one topological kernel order:
// 2^(n-1) for n kernels.  Exhaustive enumeration is used up to a budget;
// beyond it a greedy merge heuristic: start from one-kernel-per-cluster
// and repeatedly merge the adjacent cluster pair that improves the
// estimate most.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "msys/arch/m1.hpp"
#include "msys/model/schedule.hpp"

namespace msys::ksched {

struct Options {
  enum class Strategy {
    kAuto,        ///< exhaustive when within budget, else greedy
    kExhaustive,  ///< always enumerate all contiguous partitions
    kGreedy,      ///< always greedy merging
  };
  Strategy strategy{Strategy::kAuto};
  /// Maximum number of candidate partitions kAuto evaluates exhaustively.
  std::uint64_t exhaustive_budget{4096};
};

struct Candidate {
  /// Cluster sizes along the topological order (a composition of n).
  std::vector<std::uint32_t> shape;
  Cycles cycles{};
  bool feasible{false};
};

struct SearchResult {
  /// Best feasible schedule (references the Application, which must stay
  /// alive).  Absent when no candidate was feasible.
  std::unique_ptr<model::KernelSchedule> best;
  Cycles best_cycles{};
  std::uint64_t evaluated{0};
  std::uint64_t feasible_count{0};
  /// Every evaluated candidate, best first.
  std::vector<Candidate> candidates;

  [[nodiscard]] bool found() const { return best != nullptr; }
};

/// Searches for the minimum-estimated-time kernel schedule of `app` on
/// machine `cfg`.
[[nodiscard]] SearchResult find_best_schedule(const model::Application& app,
                                              const arch::M1Config& cfg,
                                              const Options& options = {});

}  // namespace msys::ksched
