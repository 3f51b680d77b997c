// Data objects: the unit the data schedulers move, place and retain.
//
// A DataObject models one per-iteration block of application data (e.g. one
// macroblock's pixels, one correlation template).  Every iteration of the
// application processes a fresh instance of each object, so sizes below are
// per-iteration sizes; with context-reuse factor RF, RF instances of an
// object are FB-resident at once.
#pragma once

#include <span>
#include <string>

#include "msys/common/types.hpp"

namespace msys::model {

/// Role of a data object, derived from its producer/consumer structure.
enum class DataKind {
  /// Produced outside the application; must be DMA-loaded from external
  /// memory before its first consumer runs.
  kExternalInput,
  /// Produced by one kernel, consumed only by later kernels; never touches
  /// external memory unless evicted.
  kIntermediate,
  /// Produced by one kernel and required in external memory after the run
  /// (it may additionally feed later kernels).
  kFinalResult,
};

[[nodiscard]] std::string to_string(DataKind kind);

struct DataObject {
  DataId id{};
  std::string name;
  /// Per-iteration size in FB words.
  SizeWords size{};
  /// Producing kernel; invalid() means the object is an external input.
  KernelId producer{};
  /// Consuming kernels, in insertion order (deduplicated): a view into the
  /// owning Application's adjacency array, valid while it lives.
  std::span<const KernelId> consumers;
  /// True when the object must be written back to external memory.
  bool required_in_external_memory{false};

  [[nodiscard]] DataKind kind() const {
    if (!producer.valid()) return DataKind::kExternalInput;
    return required_in_external_memory ? DataKind::kFinalResult : DataKind::kIntermediate;
  }
};

}  // namespace msys::model
