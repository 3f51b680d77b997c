#include "msys/model/canonical.hpp"

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

namespace msys::model {

namespace {

/// Indices into `items` ordered by the name `name_of` extracts.  Names are
/// unique within an Application, so the order is total and deterministic.
template <class T, class NameOf>
std::vector<std::size_t> name_sorted(const std::vector<T>& items, NameOf name_of) {
  std::vector<std::size_t> order(items.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return name_of(items[a]) < name_of(items[b]);
  });
  return order;
}

}  // namespace

void hash_append(Hasher& h, const Application& app) {
  // Domain tag + format version: bump if the encoding ever changes, so
  // stale persisted keys can never alias fresh ones.
  hash_append(h, "msys.model.Application/v1");
  hash_append(h, app.name());
  hash_append(h, app.total_iterations());

  const std::vector<DataObject>& data = app.data_objects();
  const std::vector<Kernel>& kernels = app.kernels();

  const std::vector<std::size_t> data_order =
      name_sorted(data, [](const DataObject& d) -> const std::string& { return d.name; });
  h.update_u64(data.size());
  for (std::size_t i : data_order) {
    const DataObject& d = data[i];
    hash_append(h, d.name);
    hash_append(h, d.size.value());
    hash_append(h, d.producer.valid() ? std::string_view(app.kernel(d.producer).name)
                                      : std::string_view());
    hash_append(h, d.required_in_external_memory);
    // Consumers are derivable from the kernels' input lists, but hashing
    // them keeps the encoding robust against future builder extensions.
    h.update_u64(d.consumers.size());
    for (KernelId k : d.consumers) hash_append(h, app.kernel(k).name);
  }

  const std::vector<std::size_t> kernel_order =
      name_sorted(kernels, [](const Kernel& k) -> const std::string& { return k.name; });
  h.update_u64(kernels.size());
  for (std::size_t i : kernel_order) {
    const Kernel& k = kernels[i];
    hash_append(h, k.name);
    hash_append(h, k.context_words);
    hash_append(h, k.exec_cycles.value());
    h.update_u64(k.inputs.size());
    for (DataId d : k.inputs) hash_append(h, app.data(d).name);
    h.update_u64(k.outputs.size());
    for (DataId d : k.outputs) hash_append(h, app.data(d).name);
  }
}

void hash_append(Hasher& h, const KernelSchedule& sched) {
  hash_append(h, "msys.model.KernelSchedule/v1");
  hash_append(h, sched.app());
  h.update_u64(sched.cluster_count());
  for (const Cluster& c : sched.clusters()) {
    h.update_u64(c.kernels.size());
    for (KernelId k : c.kernels) hash_append(h, sched.app().kernel(k).name);
  }
}

std::uint64_t canonical_hash(const Application& app) {
  Hasher h;
  hash_append(h, app);
  return h.finalize();
}

std::uint64_t canonical_hash(const KernelSchedule& sched) {
  Hasher h;
  hash_append(h, sched);
  return h.finalize();
}

}  // namespace msys::model
