// Event-driven M1 simulator.
//
// Executes a ScheduleProgram on the modelled machine: a single-channel DMA
// engine processing its stream in FIFO order, and the RC array processing
// executions in program order.  Beyond timing, the simulator performs full
// functional checking and throws msys::Error on any violation:
//
//   * the DMA stream holds only context loads, data loads and stores, the
//     RC stream only executions and releases;
//   * a data load must target currently-free FB words;
//   * a kernel execution must find every input instance resident in its
//     cluster's FB set and its contexts resident in the CM;
//   * produced results must land in free FB words;
//   * a store must read a resident instance; double releases are rejected;
//   * the CM may never hold more context words than its capacity.
//
// Timing discipline (identical to dsched::predict_cost, implemented
// independently — the test suite asserts cycle-exact agreement):
//   * DMA ops run one at a time, in stream order;
//   * a context load under the per-slot-serial regime waits for the
//     previous slot's execution (the CM is still in use);
//   * the first data load of a slot waits until the previous same-set
//     slot's execution has released the set;
//   * a store waits for its slot's execution;
//   * the first execution of a slot waits for the slot's full IN batch.
//
// Both passes are single loops over the program's op arrays and small
// per-run tables (cost proportional to the ops run):
//   * the timing pass runs one loop per stream head.  Per-run tables give
//     each kernel's execution and context cycles and context words and
//     each data object's DMA cycles and words; a slot's dependencies are
//     resolved once its load and execution counters reach zero.  Clocks
//     and report counters are locals, written to the report once;
//   * each timed op writes its events as it is timed, into the DMA or RC
//     part of one buffer, each part kept in (time, phase, op) order as it
//     is written: phases at equal times are removals, then insertions,
//     then checks.  The DMA channel and the RC array are each serial, so a
//     stream's events come in nondecreasing time (checked) and only move
//     past equal-time events of a later phase;
//   * the functional pass merges the two parts with two cursors and applies
//     each event in place;
//   * FB occupancy is a bitset of words per set, checked and marked with
//     64-bit masks.  Extent::overlaps semantics hold exactly, including its
//     rule for empty extents;
//   * placements come from a dense (cluster, data, iter < RF) index of
//     the schedule's own placement records, built once per run; every
//     decoded field and extent range is bounds-checked, and a missing
//     entry is the "no placement for object instance" fault;
//   * residency tables are dense byte or pointer tables indexed by
//     (data, iter) and (round, data, iter), sized from the program; CM
//     residency is a per-kernel flag (the keyed map is walked only to
//     evict, in the order that decides max_cm_words, and takes its nodes
//     from a pool the thread keeps);
//   * the buffers (timed ops, events, the placement index and the tables)
//     belong to the thread, not the Simulator, so the usual fresh
//     Simulator per check reuses them;
//   * failure descriptions are built only when a check fails.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "msys/arch/m1.hpp"
#include "msys/codegen/program.hpp"
#include "msys/common/diagnostic.hpp"
#include "msys/csched/context_plan.hpp"

namespace msys::sim {

struct SimReport {
  Cycles total{};
  Cycles compute{};
  Cycles stall{};
  Cycles dma_busy{};

  std::uint64_t data_words_loaded{0};
  std::uint64_t data_words_stored{0};
  std::uint64_t context_words{0};
  std::uint64_t dma_requests{0};
  std::uint64_t exec_count{0};
  std::uint64_t release_count{0};

  /// Peak FB words simultaneously resident, per set.
  std::uint64_t max_resident_words[2] = {0, 0};
  /// Peak CM words simultaneously resident.
  std::uint32_t max_cm_words{0};

  [[nodiscard]] std::uint64_t data_words_total() const {
    return data_words_loaded + data_words_stored;
  }
  [[nodiscard]] std::string summary() const;
};

class Simulator {
 public:
  /// Called for every timed op when tracing: [start, end) and a one-line
  /// description.
  using TraceFn = std::function<void(Cycles start, Cycles end, const std::string& what)>;

  Simulator(const arch::M1Config& cfg, const csched::ContextPlan& ctx_plan);

  void set_trace(TraceFn trace) { trace_ = std::move(trace); }

  /// Runs the program to completion; throws msys::Error on any functional
  /// violation.
  [[nodiscard]] SimReport run(const codegen::ScheduleProgram& program);

  /// Non-throwing variant for adversarial inputs (the fuzz harness):
  /// functional violations come back as "sim.fault" diagnostics instead of
  /// exceptions.  `report` is present iff `diagnostics` is empty.
  struct Outcome {
    std::optional<SimReport> report;
    Diagnostics diagnostics;

    [[nodiscard]] bool ok() const { return report.has_value(); }
  };
  [[nodiscard]] Outcome try_run(const codegen::ScheduleProgram& program);

 private:
  const arch::M1Config* cfg_;
  const csched::ContextPlan* ctx_plan_;
  TraceFn trace_;
};

}  // namespace msys::sim
