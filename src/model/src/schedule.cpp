#include "msys/model/schedule.hpp"

#include <sstream>

#include "msys/common/error.hpp"

namespace msys::model {

KernelSchedule KernelSchedule::from_partition(const Application& app,
                                              std::vector<std::vector<KernelId>> partition) {
  MSYS_REQUIRE(!partition.empty(), "schedule needs at least one cluster");

  KernelSchedule sched;
  sched.app_ = &app;
  sched.cluster_of_kernel_.assign(app.kernel_count(), ClusterId{});
  sched.position_of_kernel_.assign(app.kernel_count(), 0);
  sched.clusters_.reserve(partition.size());
  sched.flat_order_.reserve(app.kernel_count());

  for (std::size_t c = 0; c < partition.size(); ++c) {
    MSYS_REQUIRE(!partition[c].empty(), "clusters must be non-empty");
    Cluster cluster;
    cluster.id = ClusterId{static_cast<ClusterId::rep>(c)};
    cluster.set = (c % 2 == 0) ? FbSet::kA : FbSet::kB;
    cluster.kernels = std::move(partition[c]);
    for (KernelId k : cluster.kernels) {
      MSYS_REQUIRE(k.index() < app.kernel_count(), "unknown kernel in partition");
      MSYS_REQUIRE(!sched.cluster_of_kernel_[k.index()].valid(),
                   "kernel '" + app.kernel(k).name + "' appears twice");
      sched.cluster_of_kernel_[k.index()] = cluster.id;
      sched.position_of_kernel_[k.index()] =
          static_cast<std::uint32_t>(sched.flat_order_.size());
      sched.flat_order_.push_back(k);
    }
    sched.clusters_.push_back(std::move(cluster));
  }
  MSYS_REQUIRE(sched.flat_order_.size() == app.kernel_count(),
               "partition must cover every kernel");
  // Every kernel has its position now, so the order is a permutation.
  for (const DataObject& d : app.data_objects()) {
    if (!d.producer.valid()) continue;
    for (const KernelId consumer : d.consumers) {
      MSYS_REQUIRE(sched.position_of_kernel_[d.producer.index()] <
                       sched.position_of_kernel_[consumer.index()],
                   "partition order violates data dependencies");
    }
  }
  return sched;
}

KernelSchedule KernelSchedule::one_kernel_per_cluster(const Application& app,
                                                      std::vector<KernelId> order) {
  std::vector<std::vector<KernelId>> partition;
  partition.reserve(order.size());
  for (KernelId k : order) partition.push_back({k});
  return from_partition(app, std::move(partition));
}

const Cluster& KernelSchedule::cluster(ClusterId id) const {
  MSYS_REQUIRE(id.index() < clusters_.size(), "cluster id out of range");
  return clusters_[id.index()];
}

ClusterId KernelSchedule::cluster_of(KernelId kernel) const {
  MSYS_REQUIRE(kernel.index() < cluster_of_kernel_.size(), "kernel id out of range");
  return cluster_of_kernel_[kernel.index()];
}

std::uint32_t KernelSchedule::global_position(KernelId kernel) const {
  MSYS_REQUIRE(kernel.index() < position_of_kernel_.size(), "kernel id out of range");
  return position_of_kernel_[kernel.index()];
}

std::vector<ClusterId> KernelSchedule::clusters_on(FbSet set) const {
  std::vector<ClusterId> out;
  for (const Cluster& c : clusters_) {
    if (c.set == set) out.push_back(c.id);
  }
  return out;
}

std::uint32_t KernelSchedule::cluster_context_words(ClusterId cluster_id) const {
  std::uint32_t total = 0;
  for (KernelId k : cluster(cluster_id).kernels) total += app_->kernel(k).context_words;
  return total;
}

std::uint32_t KernelSchedule::max_kernels_per_cluster() const {
  std::uint32_t max_n = 0;
  for (const Cluster& c : clusters_) {
    max_n = std::max<std::uint32_t>(max_n, static_cast<std::uint32_t>(c.kernels.size()));
  }
  return max_n;
}

std::string KernelSchedule::summary() const {
  std::ostringstream out;
  out << app_->name() << ": " << clusters_.size() << " clusters {";
  for (const Cluster& c : clusters_) {
    if (c.id.index() != 0) out << ", ";
    out << "Cl" << (c.id.index() + 1) << '(' << to_string(c.set) << "):[";
    for (std::size_t i = 0; i < c.kernels.size(); ++i) {
      if (i != 0) out << ' ';
      out << app_->kernel(c.kernels[i]).name;
    }
    out << ']';
  }
  out << '}';
  return out.str();
}

}  // namespace msys::model
