// Application: a DAG of kernels connected through data objects, executed
// `total_iterations` times over successive data blocks (the outer loop of a
// multimedia pipeline: one iteration per macroblock / frame slice / image
// chip).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "msys/common/error.hpp"
#include "msys/common/types.hpp"
#include "msys/model/data.hpp"
#include "msys/model/kernel.hpp"

namespace msys::model {

class Application;

/// Incrementally assembles an Application and validates it on build().
///
///   ApplicationBuilder b("mpeg", /*iterations=*/64);
///   DataId frame = b.external_input("frame", SizeWords{256});
///   KernelId dct = b.kernel("dct", 32, Cycles{400}, {frame});
///   DataId coef = b.output(dct, "coef", SizeWords{256});
///   ...
///   Application app = b.build();
class ApplicationBuilder {
 public:
  ApplicationBuilder(std::string name, std::uint32_t total_iterations);

  /// Declares a data object produced outside the application.
  DataId external_input(std::string name, SizeWords size);

  /// Declares a kernel with its input objects; outputs are attached with
  /// output() so that each object knows its unique producer.
  KernelId kernel(std::string name, std::uint32_t context_words, Cycles exec_cycles,
                  std::vector<DataId> inputs = {});

  /// Declares an object produced by `producer`.
  DataId output(KernelId producer, std::string name, SizeWords size,
                bool required_in_external_memory = false);

  /// Adds a further input to an already-declared kernel (for wiring an
  /// earlier kernel's output into a later kernel).
  void add_input(KernelId kernel, DataId data);

  /// Marks an object as needed in external memory after the run.
  void mark_final(DataId data);

  /// Validates and returns the finished Application, its adjacency laid
  /// out once (see Application).  Throws msys::Error on structural
  /// problems (unknown ids, cyclic dependencies, kernels with zero
  /// latency, objects nobody reads or writes back, ...).
  [[nodiscard]] Application build() &&;

 private:
  /// One add_input() call, repeats included; build() keeps the first.
  struct InputEdge {
    KernelId kernel;
    DataId data;
  };

  std::string name_;
  std::uint32_t total_iterations_;
  // Staged flat: kernels and objects with empty adjacency spans, and the
  // (kernel, input) edges in call order.
  std::vector<DataObject> data_;
  std::vector<Kernel> kernels_;
  std::vector<InputEdge> edges_;
  bool built_{false};
};

/// Immutable, validated kernel/data DAG.
///
/// The adjacency is flat, CSR-style: one array holds every kernel's inputs
/// (kernel by kernel), one every kernel's outputs and one every object's
/// consumers; Kernel::inputs/outputs and DataObject::consumers are spans
/// into them.  A copy owns its own arrays and re-points its spans; a move
/// takes the arrays, so the spans stay valid.
class Application {
 public:
  Application(const Application& other);
  Application& operator=(const Application& other);
  Application(Application&&) noexcept = default;
  Application& operator=(Application&&) noexcept = default;
  ~Application() = default;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint32_t total_iterations() const { return total_iterations_; }

  [[nodiscard]] std::size_t kernel_count() const { return kernels_.size(); }
  [[nodiscard]] std::size_t data_count() const { return data_.size(); }

  // Inline: the Figure-4 walk and the cost model call these per instance
  // and per kernel.
  [[nodiscard]] const Kernel& kernel(KernelId id) const {
    MSYS_REQUIRE(id.index() < kernels_.size(), "kernel id out of range");
    return kernels_[id.index()];
  }
  [[nodiscard]] const DataObject& data(DataId id) const {
    MSYS_REQUIRE(id.index() < data_.size(), "data id out of range");
    return data_[id.index()];
  }
  [[nodiscard]] const std::vector<Kernel>& kernels() const { return kernels_; }
  [[nodiscard]] const std::vector<DataObject>& data_objects() const { return data_; }

  [[nodiscard]] std::optional<KernelId> find_kernel(std::string_view name) const;
  [[nodiscard]] std::optional<DataId> find_data(std::string_view name) const;

  /// Kernel ids in one valid topological order of the dependency DAG.
  [[nodiscard]] const std::vector<KernelId>& topological_order() const {
    return topo_order_;
  }

  /// True iff `order` (a permutation of all kernels) executes every
  /// producer before each of its consumers.
  [[nodiscard]] bool respects_dependencies(const std::vector<KernelId>& order) const;

  /// Sum of all per-iteration object sizes (the paper's TDS denominator).
  [[nodiscard]] SizeWords total_data_size() const;

  /// Sum of context words over all kernels.
  [[nodiscard]] std::uint32_t total_context_words() const;

 private:
  friend class ApplicationBuilder;
  Application() = default;

  /// Points every adjacency span into this object's arrays, keeping each
  /// span's length; the arrays are laid out in kernel and object order.
  void rebase_spans();

  std::string name_;
  std::uint32_t total_iterations_{1};
  std::vector<DataObject> data_;
  std::vector<Kernel> kernels_;
  std::vector<DataId> kernel_inputs_;
  std::vector<DataId> kernel_outputs_;
  std::vector<KernelId> data_consumers_;
  std::vector<KernelId> topo_order_;
};

}  // namespace msys::model
