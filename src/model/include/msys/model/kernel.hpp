// Kernel: the macro-task granularity of the MorphoSys compilation flow.
//
// "At the abstraction level on which we are working a kernel is
// characterized by its contexts, as well as, its input and output data"
// (paper §1).  Kernel code itself (the RC-array mapping) lives in the
// kernel library and was written once, offline; the schedulers only need
// the characterisation below, which the Information Extractor produces.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "msys/common/types.hpp"

namespace msys::model {

struct Kernel {
  KernelId id{};
  std::string name;
  /// Number of 32-bit context words that must sit in the Context Memory
  /// for this kernel to execute.
  std::uint32_t context_words{0};
  /// RC-array latency of one kernel iteration (one data block).
  Cycles exec_cycles{};
  /// Data objects read / written each iteration, in declaration order
  /// (deduplicated): views into the owning Application's adjacency arrays,
  /// valid while it lives.
  std::span<const DataId> inputs;
  std::span<const DataId> outputs;
};

}  // namespace msys::model
