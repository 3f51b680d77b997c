#include "msys/model/application.hpp"

#include <algorithm>

#include "msys/common/error.hpp"

namespace msys::model {

std::string to_string(DataKind kind) {
  switch (kind) {
    case DataKind::kExternalInput: return "external-input";
    case DataKind::kIntermediate: return "intermediate";
    case DataKind::kFinalResult: return "final-result";
  }
  return "?";
}

ApplicationBuilder::ApplicationBuilder(std::string name, std::uint32_t total_iterations)
    : name_(std::move(name)), total_iterations_(total_iterations) {
  MSYS_REQUIRE(!name_.empty(), "application needs a name");
  MSYS_REQUIRE(total_iterations_ > 0, "application must run at least one iteration");
}

DataId ApplicationBuilder::external_input(std::string name, SizeWords size) {
  MSYS_REQUIRE(size.value() > 0, "data object '" + name + "' must have non-zero size");
  DataId id{static_cast<DataId::rep>(data_.size())};
  data_.push_back(DataObject{.id = id,
                             .name = std::move(name),
                             .size = size,
                             .producer = KernelId{},
                             .consumers = {},
                             .required_in_external_memory = false});
  return id;
}

KernelId ApplicationBuilder::kernel(std::string name, std::uint32_t context_words,
                                    Cycles exec_cycles, std::vector<DataId> inputs) {
  MSYS_REQUIRE(context_words > 0, "kernel '" + name + "' needs at least one context word");
  MSYS_REQUIRE(exec_cycles.value() > 0, "kernel '" + name + "' needs non-zero latency");
  KernelId id{static_cast<KernelId::rep>(kernels_.size())};
  kernels_.push_back(Kernel{.id = id,
                            .name = std::move(name),
                            .context_words = context_words,
                            .exec_cycles = exec_cycles,
                            .inputs = {},
                            .outputs = {}});
  kernels_.back().inputs.reserve(inputs.size());
  for (DataId in : inputs) add_input(id, in);
  return id;
}

DataId ApplicationBuilder::output(KernelId producer, std::string name, SizeWords size,
                                  bool required_in_external_memory) {
  MSYS_REQUIRE(producer.index() < kernels_.size(), "output(): unknown kernel");
  MSYS_REQUIRE(size.value() > 0, "data object '" + name + "' must have non-zero size");
  DataId id{static_cast<DataId::rep>(data_.size())};
  data_.push_back(DataObject{.id = id,
                             .name = std::move(name),
                             .size = size,
                             .producer = producer,
                             .consumers = {},
                             .required_in_external_memory = required_in_external_memory});
  kernels_[producer.index()].outputs.push_back(id);
  return id;
}

void ApplicationBuilder::add_input(KernelId kernel, DataId data) {
  MSYS_REQUIRE(kernel.index() < kernels_.size(), "add_input(): unknown kernel");
  MSYS_REQUIRE(data.index() < data_.size(), "add_input(): unknown data object");
  MSYS_REQUIRE(data_[data.index()].producer != kernel,
               "kernel cannot consume its own output");
  Kernel& k = kernels_[kernel.index()];
  if (std::find(k.inputs.begin(), k.inputs.end(), data) != k.inputs.end()) return;
  k.inputs.push_back(data);
  DataObject& d = data_[data.index()];
  if (std::find(d.consumers.begin(), d.consumers.end(), kernel) == d.consumers.end()) {
    d.consumers.push_back(kernel);
  }
}

void ApplicationBuilder::mark_final(DataId data) {
  MSYS_REQUIRE(data.index() < data_.size(), "mark_final(): unknown data object");
  MSYS_REQUIRE(data_[data.index()].producer.valid(),
               "external inputs cannot be final results");
  data_[data.index()].required_in_external_memory = true;
}

namespace {

/// Kahn topological sort over producer->consumer edges; empty on cycle.
std::vector<KernelId> topo_sort(const std::vector<Kernel>& kernels,
                                const std::vector<DataObject>& data) {
  std::vector<std::uint32_t> indegree(kernels.size(), 0);
  for (const DataObject& d : data) {
    if (!d.producer.valid()) continue;
    for (KernelId consumer : d.consumers) {
      if (consumer != d.producer) ++indegree[consumer.index()];
    }
  }
  // `order` is its own FIFO: kernels [head, end) are ready, not yet expanded.
  std::vector<KernelId> order;
  order.reserve(kernels.size());
  for (const Kernel& k : kernels) {
    if (indegree[k.id.index()] == 0) order.push_back(k.id);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    const KernelId k = order[head];
    for (DataId out : kernels[k.index()].outputs) {
      for (KernelId consumer : data[out.index()].consumers) {
        if (consumer == k) continue;
        if (--indegree[consumer.index()] == 0) order.push_back(consumer);
      }
    }
  }
  if (order.size() != kernels.size()) order.clear();
  return order;
}

}  // namespace

Application ApplicationBuilder::build() && {
  MSYS_REQUIRE(!built_, "build() may only be called once");
  built_ = true;
  MSYS_REQUIRE(!kernels_.empty(), "application '" + name_ + "' has no kernels");

  for (const Kernel& k : kernels_) {
    MSYS_REQUIRE(!k.inputs.empty() || !k.outputs.empty(),
                 "kernel '" + k.name + "' touches no data");
    // A kernel reading its own output would be a cycle of length one.
    for (DataId out : k.outputs) {
      MSYS_REQUIRE(std::find(k.inputs.begin(), k.inputs.end(), out) == k.inputs.end(),
                   "kernel '" + k.name + "' consumes its own output");
    }
  }
  for (const DataObject& d : data_) {
    MSYS_REQUIRE(d.producer.valid() || !d.consumers.empty(),
                 "external input '" + d.name + "' is never consumed");
    MSYS_REQUIRE(!d.producer.valid() || !d.consumers.empty() ||
                     d.required_in_external_memory,
                 "result '" + d.name + "' is neither consumed nor written back");
  }

  std::vector<KernelId> order = topo_sort(kernels_, data_);
  MSYS_REQUIRE(!order.empty(), "application '" + name_ + "' has a dependency cycle");

  Application app;
  app.name_ = std::move(name_);
  app.total_iterations_ = total_iterations_;
  app.data_ = std::move(data_);
  app.kernels_ = std::move(kernels_);
  app.topo_order_ = std::move(order);
  return app;
}

std::optional<KernelId> Application::find_kernel(std::string_view name) const {
  for (const Kernel& k : kernels_) {
    if (k.name == name) return k.id;
  }
  return std::nullopt;
}

std::optional<DataId> Application::find_data(std::string_view name) const {
  for (const DataObject& d : data_) {
    if (d.name == name) return d.id;
  }
  return std::nullopt;
}

bool Application::respects_dependencies(const std::vector<KernelId>& order) const {
  if (order.size() != kernels_.size()) return false;
  std::vector<std::uint32_t> position(kernels_.size(), 0);
  std::vector<bool> seen(kernels_.size(), false);
  for (std::uint32_t pos = 0; pos < order.size(); ++pos) {
    const KernelId k = order[pos];
    if (k.index() >= kernels_.size() || seen[k.index()]) return false;
    seen[k.index()] = true;
    position[k.index()] = pos;
  }
  for (const DataObject& d : data_) {
    if (!d.producer.valid()) continue;
    for (KernelId consumer : d.consumers) {
      if (position[d.producer.index()] >= position[consumer.index()]) return false;
    }
  }
  return true;
}

SizeWords Application::total_data_size() const {
  SizeWords total = SizeWords::zero();
  for (const DataObject& d : data_) total += d.size;
  return total;
}

std::uint32_t Application::total_context_words() const {
  std::uint32_t total = 0;
  for (const Kernel& k : kernels_) total += k.context_words;
  return total;
}

}  // namespace msys::model
