#include "msys/model/application.hpp"

#include <algorithm>
#include <span>

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
  return id;
}

void ApplicationBuilder::add_input(KernelId kernel, DataId data) {
  MSYS_REQUIRE(kernel.index() < kernels_.size(), "add_input(): unknown kernel");
  MSYS_REQUIRE(data.index() < data_.size(), "add_input(): unknown data object");
  MSYS_REQUIRE(data_[data.index()].producer != kernel,
               "kernel cannot consume its own output");
  edges_.push_back(InputEdge{kernel, data});
}

void ApplicationBuilder::mark_final(DataId data) {
  MSYS_REQUIRE(data.index() < data_.size(), "mark_final(): unknown data object");
  MSYS_REQUIRE(data_[data.index()].producer.valid(),
               "external inputs cannot be final results");
  data_[data.index()].required_in_external_memory = true;
}

namespace {

/// Turns bucket b's count at `ends[b + 1]` into its begin there and
/// returns the total.  Filling bucket b through `ends[b + 1]++` (a stable
/// counting sort) then leaves each bucket's end at `ends[b + 1]`, so
/// bucket b spans [ends[b], ends[b + 1]).
std::uint32_t counts_to_begins(std::span<std::uint32_t> ends) {
  std::uint32_t sum = 0;
  for (std::size_t b = 1; b < ends.size(); ++b) {
    const std::uint32_t count = ends[b];
    ends[b] = sum;
    sum += count;
  }
  return sum;
}

/// Kahn topological sort over producer->consumer edges; empty on cycle.
/// `indegree` is scratch of one entry per kernel.
std::vector<KernelId> topo_sort(const std::vector<Kernel>& kernels,
                                const std::vector<DataObject>& data,
                                std::span<std::uint32_t> indegree) {
  std::fill(indegree.begin(), indegree.end(), 0);
  for (const DataObject& d : data) {
    if (!d.producer.valid()) continue;
    for (KernelId consumer : d.consumers) ++indegree[consumer.index()];
  }
  // `order` is its own FIFO: kernels [head, end) are ready, not yet expanded.
  std::vector<KernelId> order;
  order.reserve(kernels.size());
  for (const Kernel& k : kernels) {
    if (indegree[k.id.index()] == 0) order.push_back(k.id);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (DataId out : kernels[order[head].index()].outputs) {
      for (KernelId consumer : data[out.index()].consumers) {
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

  const std::size_t kernels = kernels_.size();
  const std::size_t objects = data_.size();
  Application app;
  app.name_ = std::move(name_);
  app.total_iterations_ = total_iterations_;

  // One scratch array: per-kernel bucket ends for the input edges and the
  // outputs, per-object bucket ends for the consumers, the edges sorted by
  // kernel, a per-object "last kernel seen" stamp and the in-degrees.
  std::vector<std::uint32_t> scratch(3 * kernels + 3 + 2 * objects + edges_.size());
  const std::span<std::uint32_t> all(scratch);
  const std::span<std::uint32_t> in_ends = all.subspan(0, kernels + 1);
  const std::span<std::uint32_t> out_ends = all.subspan(kernels + 1, kernels + 1);
  const std::span<std::uint32_t> indegree = all.subspan(2 * (kernels + 1), kernels);
  const std::span<std::uint32_t> consumer_ends = all.subspan(3 * kernels + 2, objects + 1);
  const std::span<std::uint32_t> stamp = all.subspan(3 * kernels + 3 + objects, objects);
  const std::span<std::uint32_t> by_kernel = all.subspan(3 * kernels + 3 + 2 * objects);

  // Inputs: the edges, stably bucketed by kernel, keep each (kernel,
  // object) pair's first call.  A dropped repeat is marked invalid in
  // edges_ so the consumer pass below skips it.
  for (const InputEdge& e : edges_) ++in_ends[e.kernel.index() + 1];
  counts_to_begins(in_ends);
  for (std::uint32_t i = 0; i < edges_.size(); ++i) {
    by_kernel[in_ends[edges_[i].kernel.index() + 1]++] = i;
  }
  app.kernel_inputs_.reserve(edges_.size());
  for (std::size_t k = 0; k < kernels; ++k) {
    const std::size_t begin = app.kernel_inputs_.size();
    for (std::uint32_t e = in_ends[k]; e < in_ends[k + 1]; ++e) {
      InputEdge& edge = edges_[by_kernel[e]];
      std::uint32_t& seen = stamp[edge.data.index()];
      if (seen == k + 1) {
        edge.data = DataId{};
        continue;
      }
      seen = static_cast<std::uint32_t>(k + 1);
      app.kernel_inputs_.push_back(edge.data);
    }
    kernels_[k].inputs = std::span(app.kernel_inputs_).subspan(begin);
  }

  // Outputs: each kernel's objects in declaration order.
  for (const DataObject& d : data_) {
    if (d.producer.valid()) ++out_ends[d.producer.index() + 1];
  }
  app.kernel_outputs_.resize(counts_to_begins(out_ends));
  for (const DataObject& d : data_) {
    if (d.producer.valid()) app.kernel_outputs_[out_ends[d.producer.index() + 1]++] = d.id;
  }
  for (std::size_t k = 0; k < kernels; ++k) {
    kernels_[k].outputs =
        std::span(app.kernel_outputs_).subspan(out_ends[k], out_ends[k + 1] - out_ends[k]);
  }

  // Consumers: each object's readers in the order their edges were added.
  for (const InputEdge& e : edges_) {
    if (e.data.valid()) ++consumer_ends[e.data.index() + 1];
  }
  app.data_consumers_.resize(counts_to_begins(consumer_ends));
  for (const InputEdge& e : edges_) {
    if (e.data.valid()) app.data_consumers_[consumer_ends[e.data.index() + 1]++] = e.kernel;
  }
  for (std::size_t d = 0; d < objects; ++d) {
    data_[d].consumers = std::span(app.data_consumers_)
                             .subspan(consumer_ends[d], consumer_ends[d + 1] - consumer_ends[d]);
  }

  // An output is never its producer's input (add_input refuses it), so a
  // kernel cannot read its own output here.
  for (const Kernel& k : kernels_) {
    MSYS_REQUIRE(!k.inputs.empty() || !k.outputs.empty(),
                 "kernel '" + k.name + "' touches no data");
  }
  for (const DataObject& d : data_) {
    MSYS_REQUIRE(d.producer.valid() || !d.consumers.empty(),
                 "external input '" + d.name + "' is never consumed");
    MSYS_REQUIRE(!d.producer.valid() || !d.consumers.empty() ||
                     d.required_in_external_memory,
                 "result '" + d.name + "' is neither consumed nor written back");
  }

  std::vector<KernelId> order = topo_sort(kernels_, data_, indegree);
  MSYS_REQUIRE(!order.empty(), "application '" + app.name_ + "' has a dependency cycle");

  app.data_ = std::move(data_);
  app.kernels_ = std::move(kernels_);
  app.topo_order_ = std::move(order);
  return app;
}

Application::Application(const Application& other)
    : name_(other.name_),
      total_iterations_(other.total_iterations_),
      data_(other.data_),
      kernels_(other.kernels_),
      kernel_inputs_(other.kernel_inputs_),
      kernel_outputs_(other.kernel_outputs_),
      data_consumers_(other.data_consumers_),
      topo_order_(other.topo_order_) {
  rebase_spans();
}

Application& Application::operator=(const Application& other) {
  if (this != &other) *this = Application(other);
  return *this;
}

void Application::rebase_spans() {
  std::size_t in = 0;
  std::size_t out = 0;
  for (Kernel& k : kernels_) {
    k.inputs = std::span(kernel_inputs_).subspan(in, k.inputs.size());
    k.outputs = std::span(kernel_outputs_).subspan(out, k.outputs.size());
    in += k.inputs.size();
    out += k.outputs.size();
  }
  std::size_t consumer = 0;
  for (DataObject& d : data_) {
    d.consumers = std::span(data_consumers_).subspan(consumer, d.consumers.size());
    consumer += d.consumers.size();
  }
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
