#include "msys/model/canonical.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <vector>

namespace msys::model {

namespace {

/// A name's first eight bytes big-endian, zero-padded: heads order names
/// as std::string does whenever they differ.
std::uint64_t name_head(const std::string& name) {
  std::uint64_t head = 0;
  const std::size_t n = std::min<std::size_t>(name.size(), 8);
  for (std::size_t i = 0; i < n; ++i) {
    head |= std::uint64_t{static_cast<unsigned char>(name[i])} << (56 - 8 * i);
  }
  return head;
}

/// Fills `order` with the items' indices in name order and `rank` with
/// each item's position in it, using `heads` (one per item) as scratch.
/// Names are unique within an Application; a tie, which the builder does
/// not refuse, falls back to declaration order.
template <class T>
void rank_by_name(const std::vector<T>& items, std::span<std::uint64_t> heads,
                  std::span<std::uint32_t> order, std::span<std::uint32_t> rank) {
  for (std::uint32_t i = 0; i < order.size(); ++i) {
    order[i] = i;
    heads[i] = name_head(items[i].name);
  }
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (heads[a] != heads[b]) return heads[a] < heads[b];
    const int c = items[a].name.compare(items[b].name);
    return c < 0 || (c == 0 && a < b);
  });
  for (std::uint32_t r = 0; r < order.size(); ++r) rank[order[r]] = r;
}

/// An application's objects and kernels in name order, and each one's
/// rank in that order; held on the stack unless the application is large.
class NameRanks {
 public:
  explicit NameRanks(const Application& app) {
    const std::size_t objects = app.data_count();
    const std::size_t kernels = app.kernel_count();
    const std::size_t items = objects + kernels;
    std::span<std::uint32_t> buffer(local_);
    std::span<std::uint64_t> heads(local_heads_);
    if (items > local_heads_.size()) {
      spill_.resize(2 * items);
      spill_heads_.resize(items);
      buffer = spill_;
      heads = spill_heads_;
    }
    data_order = buffer.subspan(0, objects);
    data_rank = buffer.subspan(objects, objects);
    kernel_order = buffer.subspan(2 * objects, kernels);
    kernel_rank = buffer.subspan(2 * objects + kernels, kernels);
    rank_by_name(app.data_objects(), heads, data_order, data_rank);
    rank_by_name(app.kernels(), heads, kernel_order, kernel_rank);
  }

  std::span<std::uint32_t> data_order;
  std::span<std::uint32_t> data_rank;
  std::span<std::uint32_t> kernel_order;
  std::span<std::uint32_t> kernel_rank;

 private:
  std::array<std::uint32_t, 512> local_;
  std::array<std::uint64_t, 256> local_heads_;
  std::vector<std::uint32_t> spill_;
  std::vector<std::uint64_t> spill_heads_;
};

void append(WordHasher& h, const Application& app, const NameRanks& ranks) {
  // Domain tag + format version: bump if the encoding ever changes, so
  // stale persisted keys can never alias fresh ones.
  h.update_bytes("msys.model.Application/v2");
  h.update_bytes(app.name());
  h.update_u64(app.total_iterations());

  // A reference to a kernel or object is its rank in the name order the
  // encoding lists them in; a producer is its rank + 1, 0 for none.
  h.update_u64(app.data_count());
  for (const std::uint32_t i : ranks.data_order) {
    const DataObject& d = app.data_objects()[i];
    h.update_bytes(d.name);
    h.update_u64(d.size.value());
    h.update_u64(d.producer.valid() ? ranks.kernel_rank[d.producer.index()] + 1 : 0);
    h.update_u64(d.required_in_external_memory ? 1 : 0);
    // Consumers are derivable from the kernels' input lists, but hashing
    // them keeps the encoding robust against future builder extensions.
    h.update_u64(d.consumers.size());
    for (const KernelId k : d.consumers) h.update_u64(ranks.kernel_rank[k.index()]);
  }

  h.update_u64(app.kernel_count());
  for (const std::uint32_t i : ranks.kernel_order) {
    const Kernel& k = app.kernels()[i];
    h.update_bytes(k.name);
    h.update_u64(k.context_words);
    h.update_u64(k.exec_cycles.value());
    h.update_u64(k.inputs.size());
    for (const DataId d : k.inputs) h.update_u64(ranks.data_rank[d.index()]);
    h.update_u64(k.outputs.size());
    for (const DataId d : k.outputs) h.update_u64(ranks.data_rank[d.index()]);
  }
}

}  // namespace

void hash_append(WordHasher& h, const Application& app) { append(h, app, NameRanks(app)); }

void hash_append(WordHasher& h, const KernelSchedule& sched) {
  const NameRanks ranks(sched.app());
  h.update_bytes("msys.model.KernelSchedule/v2");
  append(h, sched.app(), ranks);
  h.update_u64(sched.cluster_count());
  for (const Cluster& c : sched.clusters()) {
    h.update_u64(c.kernels.size());
    for (const KernelId k : c.kernels) h.update_u64(ranks.kernel_rank[k.index()]);
  }
}

std::uint64_t canonical_hash(const Application& app) {
  WordHasher h;
  hash_append(h, app);
  return h.finalize();
}

std::uint64_t canonical_hash(const KernelSchedule& sched) {
  WordHasher h;
  hash_append(h, sched);
  return h.finalize();
}

}  // namespace msys::model
