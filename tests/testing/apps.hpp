// Shared miniature applications for unit tests.
#pragma once

#include <memory>

#include "msys/arch/m1.hpp"
#include "msys/model/application.hpp"
#include "msys/model/schedule.hpp"

namespace msys::testing {

/// Two-cluster pipeline:
///   Cl1(A) = {p1 (reads a, writes t), p2 (reads t,b, writes r1 final)}
///   Cl2(B) = {q1 (reads c, writes u), q2 (reads u, writes r2 final)}
/// Plus `shared` read by p1 and q1 (cross-set, so never retainable).
struct TwoClusterApp {
  std::unique_ptr<model::Application> app;
  model::KernelSchedule sched;

  static TwoClusterApp make(std::uint32_t iterations = 4) {
    model::ApplicationBuilder b("two-cluster", iterations);
    DataId a = b.external_input("a", SizeWords{100});
    DataId bb = b.external_input("b", SizeWords{50});
    DataId c = b.external_input("c", SizeWords{80});
    DataId shared = b.external_input("shared", SizeWords{40});
    KernelId p1 = b.kernel("p1", 32, Cycles{100}, {a, shared});
    DataId t = b.output(p1, "t", SizeWords{60});
    KernelId p2 = b.kernel("p2", 32, Cycles{100}, {t, bb});
    b.output(p2, "r1", SizeWords{70}, true);
    KernelId q1 = b.kernel("q1", 32, Cycles{100}, {c, shared});
    DataId u = b.output(q1, "u", SizeWords{30});
    KernelId q2 = b.kernel("q2", 32, Cycles{100}, {u});
    b.output(q2, "r2", SizeWords{20}, true);

    auto app = std::make_unique<model::Application>(std::move(b).build());
    auto p1id = *app->find_kernel("p1");
    auto p2id = *app->find_kernel("p2");
    auto q1id = *app->find_kernel("q1");
    auto q2id = *app->find_kernel("q2");
    model::KernelSchedule sched =
        model::KernelSchedule::from_partition(*app, {{p1id, p2id}, {q1id, q2id}});
    return TwoClusterApp{std::move(app), std::move(sched)};
  }
};

/// Four clusters on alternating sets with same-set sharing:
///   Cl1(A)={k1}, Cl2(B)={k2}, Cl3(A)={k3}, Cl4(B)={k4}
///   shared data `d` read by k1 and k3 (both set A)
///   result `sr` produced by k1, read by k3 only (set A, store avoidable)
///   each kernel has a private input and a final output.
struct RetentionApp {
  std::unique_ptr<model::Application> app;
  model::KernelSchedule sched;

  static RetentionApp make(std::uint32_t iterations = 6, std::uint64_t shared_size = 40,
                           std::uint64_t sr_size = 30) {
    model::ApplicationBuilder b("retention", iterations);
    DataId d = b.external_input("d", SizeWords{shared_size});
    std::vector<KernelId> ks;
    for (int i = 1; i <= 4; ++i) {
      DataId priv = b.external_input("in" + std::to_string(i), SizeWords{50});
      KernelId k = b.kernel("k" + std::to_string(i), 24, Cycles{120}, {priv});
      b.output(k, "out" + std::to_string(i), SizeWords{25}, true);
      ks.push_back(k);
    }
    b.add_input(ks[0], d);
    b.add_input(ks[2], d);
    DataId sr = b.output(ks[0], "sr", SizeWords{sr_size});
    b.add_input(ks[2], sr);

    auto app = std::make_unique<model::Application>(std::move(b).build());
    std::vector<std::vector<KernelId>> partition;
    for (KernelId k : ks) partition.push_back({k});
    model::KernelSchedule sched = model::KernelSchedule::from_partition(*app, partition);
    return RetentionApp{std::move(app), std::move(sched)};
  }
};

/// Chain of n kernels, each feeding the next, identical shapes.
inline model::Application chain_app(int n, std::uint32_t iterations = 8) {
  model::ApplicationBuilder b("chain" + std::to_string(n), iterations);
  DataId carry{};
  for (int i = 0; i < n; ++i) {
    DataId priv = b.external_input("in" + std::to_string(i), SizeWords{40});
    KernelId k = b.kernel("k" + std::to_string(i), 24, Cycles{120}, {priv});
    if (i > 0) b.add_input(k, carry);
    if (i + 1 < n) {
      carry = b.output(k, "t" + std::to_string(i), SizeWords{20});
    } else {
      b.output(k, "r", SizeWords{16}, true);
    }
  }
  return std::move(b).build();
}

/// Default machine for unit tests: 1K FB sets, roomy CM.
inline arch::M1Config test_cfg(std::uint64_t fb_words = 1024, std::uint32_t cm_words = 256) {
  arch::M1Config cfg = arch::M1Config::m1_default();
  cfg.fb_set_size = SizeWords{fb_words};
  cfg.cm_capacity_words = cm_words;
  return arch::M1Config::validated(cfg);
}

}  // namespace msys::testing
