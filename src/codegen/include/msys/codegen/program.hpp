// Schedule program: the executable lowering of a DataSchedule.
//
// Two instruction streams, mirroring the M1 hardware: the DMA channel
// (context loads, data loads, result stores — strictly one at a time) and
// the RC array (kernel executions).  Ops carry enough payload for the
// simulator to perform full functional checking: which FB words each
// instance occupies, when instances die, and which contexts must be CM
// resident.  The TinyRISC control processor is the implicit sequencer: the
// op order *is* the instruction order it would issue.
//
// generate() writes each stream once, into storage reserved from per-round
// op counts: a slot's early loads, late loads and stores are emitted where
// the double-buffering weave places them, and each execution is followed
// by the releases it fires, taken from buckets built once per round length
// (cluster, local kernel, clamped trigger iteration), in plan order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "msys/csched/context_plan.hpp"
#include "msys/dsched/schedule_types.hpp"

namespace msys::codegen {

enum class OpKind : std::uint8_t {
  kLoadContext,  ///< DMA: bring one kernel's contexts into the CM
  kLoadData,     ///< DMA: external memory -> FB set
  kStoreData,    ///< DMA: FB set -> external memory
  kExec,         ///< RC array: one kernel, one iteration
  kRelease,      ///< bookkeeping: instance's FB words become free
};

[[nodiscard]] std::string to_string(OpKind kind);

struct Op {
  OpKind kind{OpKind::kExec};
  /// Execution slot this op belongs to (round * n_clusters + cluster).
  std::uint32_t slot{0};
  KernelId kernel{};   // kLoadContext, kExec
  ClusterId cluster{}; // data ops: the cluster whose plan owns the instance
  DataId data{};       // data ops
  std::uint32_t iter{0};
  /// kStoreData: free the instance's words once stored (false for retained
  /// final results that remain resident for later clusters).
  bool release_after_store{false};
};

/// Static description of one execution slot.
struct Slot {
  std::uint32_t round{0};
  ClusterId cluster{};
  /// Iterations this slot runs (RF, or fewer in the last round).
  std::uint32_t iterations{0};
  /// True when this slot's IN batch begins with context loads.
  bool has_ctx_load{false};
};

struct ScheduleProgram {
  const dsched::DataSchedule* schedule{nullptr};
  std::vector<Slot> slots;
  /// DMA stream in channel order (the double-buffering weave).
  std::vector<Op> dma_ops;
  /// RC stream: kExec interleaved with zero-cost kRelease bookkeeping.
  std::vector<Op> rc_ops;

  [[nodiscard]] std::string summary() const;
};

/// Lowers `schedule` (all rounds) into the two instruction streams.
/// Requires a feasible schedule and context plan.
[[nodiscard]] ScheduleProgram generate(const dsched::DataSchedule& schedule,
                                       const csched::ContextPlan& ctx_plan);

}  // namespace msys::codegen
