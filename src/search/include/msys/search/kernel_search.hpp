// Kernel Scheduler (after Maestre et al. [7], [3]): the shape of the
// application's topological order with the least predicted time, each shape
// priced at CDS's own decisions through its ShapeContext (the paper's
// "tentative context and data schedules") without building a DataSchedule.
// Only compositions of app.topological_order() are explored: a schedule
// that runs its kernels in another valid order lies outside the space.
#pragma once

#include <cstdint>
#include <memory>

#include "msys/arch/m1.hpp"
#include "msys/model/schedule.hpp"

namespace msys::search {

/// Largest shape space find_best_schedule enumerates exhaustively.
inline constexpr std::uint64_t kExhaustiveLimit = 4096;

struct SearchResult {
  /// Best feasible schedule (references the Application, which must stay
  /// alive).  Absent when no shape was feasible.
  std::unique_ptr<model::KernelSchedule> best;
  Cycles best_cycles{};
  std::uint64_t evaluated{0};
  std::uint64_t feasible_count{0};

  [[nodiscard]] bool found() const { return best != nullptr; }
};

/// Searches for the minimum-predicted-time kernel schedule of `app` on
/// machine `cfg`: exhaustive_search when space_size(n) <= kExhaustiveLimit,
/// else greedy_merge_search.
[[nodiscard]] SearchResult find_best_schedule(const model::Application& app,
                                              const arch::M1Config& cfg);

/// The two strategies: price every shape (ties keep the lowest mask), or
/// merge greedily from one kernel per cluster.
[[nodiscard]] SearchResult exhaustive_search(const model::Application& app,
                                             const arch::M1Config& cfg);
[[nodiscard]] SearchResult greedy_merge_search(const model::Application& app,
                                               const arch::M1Config& cfg);

}  // namespace msys::search
