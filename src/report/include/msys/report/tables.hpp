// Formatting of experiment results in the shape of the paper's Table 1 and
// Figure 6.
#pragma once

#include <string>
#include <vector>

#include "msys/common/table.hpp"
#include "msys/report/runner.hpp"

namespace msys::report {

/// Paper Table 1: N, n, DS (data size/iteration), DT (data words avoided
/// per iteration), RF, FB (one set size), DS and CDS relative execution
/// improvement over the Basic Scheduler.
[[nodiscard]] TextTable table1(const std::vector<ExperimentResult>& results);

/// Paper Figure 6 as a text series: per experiment, the CDS and DS
/// improvement percentages (the two bar heights) plus an ASCII bar chart.
[[nodiscard]] TextTable fig6(const std::vector<ExperimentResult>& results);
[[nodiscard]] std::string fig6_ascii(const std::vector<ExperimentResult>& results);

/// Cycle-level detail: per scheduler, total/compute/stall cycles and the
/// DMA traffic split (not in the paper; useful for analysis).
[[nodiscard]] TextTable detail_table(const std::vector<ExperimentResult>& results);

/// One row of the greedy-vs-annealed comparison.  A plain data carrier so
/// the annealing search (src/search) feeds it without report depending on
/// that module: the search produces rows, report renders them.
struct AnnealRow {
  std::string name;
  std::uint64_t greedy_cycles{0};
  std::uint64_t annealed_cycles{0};
  std::uint32_t greedy_rf{0};
  std::uint32_t annealed_rf{0};
  std::uint32_t greedy_retained{0};
  std::uint32_t annealed_retained{0};
  std::uint32_t greedy_clusters{0};
  std::uint32_t annealed_clusters{0};
  bool improved{false};

  [[nodiscard]] std::uint64_t cycles_saved() const {
    return improved ? greedy_cycles - annealed_cycles : 0;
  }
};

/// Greedy-vs-annealed delta table: per row, both cycle counts, the saving
/// (absolute and percent), and the RF / retained-set / cluster-count moves
/// the annealer made.
[[nodiscard]] TextTable anneal_table(const std::vector<AnnealRow>& rows);

}  // namespace msys::report
