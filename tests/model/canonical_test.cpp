// Canonical content hashing: declaration-order independence, sensitivity
// to every semantic field (names split at another byte, names at the
// 8-byte word edges), round-trip stability through the DSL, and distinct
// digests over the fuzz corpus and a 4,000-seed random family.
#include "msys/model/canonical.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "msys/appdsl/parser.hpp"
#include "msys/arch/m1.hpp"
#include "msys/model/application.hpp"
#include "msys/workloads/random.hpp"
#include "testing/oracle.hpp"

namespace msys::model {
namespace {

/// The reference app: a -> k1 -> t -> k2 -> r(final), plus input b to k2.
Application reference_app() {
  ApplicationBuilder b("demo", 8);
  DataId a = b.external_input("a", SizeWords{64});
  DataId bb = b.external_input("b", SizeWords{32});
  KernelId k1 = b.kernel("k1", 16, Cycles{100}, {a});
  DataId t = b.output(k1, "t", SizeWords{48});
  KernelId k2 = b.kernel("k2", 24, Cycles{200}, {t, bb});
  b.output(k2, "r", SizeWords{16}, true);
  return std::move(b).build();
}

TEST(CanonicalHash, StableAcrossCalls) {
  const Application app = reference_app();
  EXPECT_EQ(canonical_hash(app), canonical_hash(app));
  EXPECT_EQ(canonical_hash(app), canonical_hash(reference_app()));
}

TEST(CanonicalHash, IndependentOfDeclarationOrder) {
  // Same DAG assembled in a different builder order: inputs declared in a
  // different sequence and k2's second input wired via add_input instead of
  // the constructor list.  Ids differ; content does not.
  ApplicationBuilder b("demo", 8);
  DataId bb = b.external_input("b", SizeWords{32});
  DataId a = b.external_input("a", SizeWords{64});
  KernelId k1 = b.kernel("k1", 16, Cycles{100}, {a});
  DataId t = b.output(k1, "t", SizeWords{48});
  KernelId k2 = b.kernel("k2", 24, Cycles{200}, {t});
  b.add_input(k2, bb);
  b.output(k2, "r", SizeWords{16}, true);
  const Application reordered = std::move(b).build();

  EXPECT_EQ(canonical_hash(reference_app()), canonical_hash(reordered));
}

TEST(CanonicalHash, StableThroughDslRoundTrip) {
  // Building by hand and re-parsing the emitted text are the paradigmatic
  // "two ways to build the same app".
  const Application app = reference_app();
  const std::string text = appdsl::write(app, {}, arch::M1Config::m1_default());
  const appdsl::ParsedExperiment parsed = appdsl::parse(text);
  EXPECT_EQ(canonical_hash(app), canonical_hash(parsed.app));
}

// Every semantic field change must move the hash.
TEST(CanonicalHash, SensitiveToEveryField) {
  const std::uint64_t base = canonical_hash(reference_app());

  // App name.
  {
    ApplicationBuilder b("demo2", 8);
    DataId a = b.external_input("a", SizeWords{64});
    DataId bb = b.external_input("b", SizeWords{32});
    KernelId k1 = b.kernel("k1", 16, Cycles{100}, {a});
    DataId t = b.output(k1, "t", SizeWords{48});
    KernelId k2 = b.kernel("k2", 24, Cycles{200}, {t, bb});
    b.output(k2, "r", SizeWords{16}, true);
    EXPECT_NE(base, canonical_hash(std::move(b).build()));
  }
  // Iteration count / object size / context words / latency / final flag /
  // an extra edge — one mutation per variant.
  struct Variant {
    const char* what;
    std::uint32_t iterations{8};
    std::uint64_t a_size{64};
    std::uint32_t k1_ctx{16};
    std::uint64_t k2_cycles{200};
    // `t` is consumed by k2, so additionally marking it final is a legal
    // mutation (unlike un-finaling `r`, which would orphan the result).
    bool t_final{false};
    bool extra_edge{false};
  };
  const Variant variants[] = {
      {"iterations", 9, 64, 16, 200, false, false},
      {"object size", 8, 65, 16, 200, false, false},
      {"context words", 8, 64, 17, 200, false, false},
      {"latency", 8, 64, 16, 201, false, false},
      {"final flag", 8, 64, 16, 200, true, false},
      {"extra edge", 8, 64, 16, 200, false, true},
  };
  for (const Variant& v : variants) {
    ApplicationBuilder b("demo", v.iterations);
    DataId a = b.external_input("a", SizeWords{v.a_size});
    DataId bb = b.external_input("b", SizeWords{32});
    KernelId k1 = b.kernel("k1", v.k1_ctx, Cycles{100}, {a});
    DataId t = b.output(k1, "t", SizeWords{48}, v.t_final);
    std::vector<DataId> k2_in = {t, bb};
    if (v.extra_edge) k2_in.push_back(a);
    KernelId k2 = b.kernel("k2", 24, Cycles{v.k2_cycles}, k2_in);
    b.output(k2, "r", SizeWords{16}, true);
    EXPECT_NE(base, canonical_hash(std::move(b).build())) << v.what;
  }
}

TEST(CanonicalHash, ScheduleHashCoversPartition) {
  const Application app = reference_app();
  const KernelId k1 = *app.find_kernel("k1");
  const KernelId k2 = *app.find_kernel("k2");
  const KernelSchedule one =
      KernelSchedule::from_partition(app, {{k1}, {k2}});
  const KernelSchedule merged = KernelSchedule::from_partition(app, {{k1, k2}});
  EXPECT_NE(canonical_hash(one), canonical_hash(merged));
  EXPECT_EQ(canonical_hash(one),
            canonical_hash(KernelSchedule::from_partition(app, {{k1}, {k2}})));
}

/// Inputs `a` and `b` into kernel `k`, whose result `r` is final; kernel
/// `k`'s input order follows the names' sorted order.
Application two_input_app(const std::string& app_name, const std::string& a,
                          const std::string& b) {
  ApplicationBuilder builder(app_name, 4);
  const DataId in_a = builder.external_input(a, SizeWords{8});
  const DataId in_b = builder.external_input(b, SizeWords{8});
  const KernelId k = builder.kernel("k", 4, Cycles{10}, {in_a, in_b});
  builder.output(k, "r", SizeWords{4}, true);
  return std::move(builder).build();
}

/// Kernels `k1` -> `k2` over one intermediate.
Application chain_app(const std::string& k1_name, const std::string& k2_name) {
  ApplicationBuilder builder("chain", 4);
  const DataId a = builder.external_input("a", SizeWords{8});
  const KernelId k1 = builder.kernel(k1_name, 4, Cycles{10}, {a});
  const DataId t = builder.output(k1, "t", SizeWords{8});
  const KernelId k2 = builder.kernel(k2_name, 4, Cycles{10}, {t});
  builder.output(k2, "r", SizeWords{4}, true);
  return std::move(builder).build();
}

// The same bytes cut into two names at another place are another app: a
// name's length is part of its encoding.
TEST(CanonicalHash, NameBoundariesAreSemantic) {
  const std::pair<std::pair<const char*, const char*>, std::pair<const char*, const char*>>
      splits[] = {
          {{"ab", "c"}, {"a", "bc"}},
          {{"abcdefgh", "i"}, {"abcdefg", "hi"}},
          {{"abcdefgh", "ijklmnop"}, {"abcdefghi", "jklmnop"}},
          {{"abcdefghijklmnop", "q"}, {"abcdefghijklmno", "pq"}},
      };
  for (const auto& [one, other] : splits) {
    EXPECT_NE(canonical_hash(two_input_app("x", one.first, one.second)),
              canonical_hash(two_input_app("x", other.first, other.second)))
        << one.first << '+' << one.second << " against " << other.first << '+'
        << other.second;
    EXPECT_NE(canonical_hash(chain_app(one.first, one.second)),
              canonical_hash(chain_app(other.first, other.second)))
        << one.first << '+' << one.second;
    const Application a = chain_app(one.first, one.second);
    const Application b = chain_app(other.first, other.second);
    EXPECT_NE(canonical_hash(KernelSchedule::from_partition(a, {a.topological_order()})),
              canonical_hash(KernelSchedule::from_partition(b, {b.topological_order()})))
        << one.first << '+' << one.second;
  }
}

// Names of 7, 8, 9 and 16 bytes sit at the edges of 8-byte words: the last
// byte, a trailing NUL (which packs into the same words) and one byte less
// must each move the digest, whether the name is the app's, an object's or
// a kernel's.
TEST(CanonicalHash, NamesAtWordEdges) {
  const std::string letters = "abcdefghijklmnopq";
  for (const std::size_t length : {7U, 8U, 9U, 16U}) {
    const std::string name = letters.substr(0, length);
    std::string last_changed = name;
    last_changed.back() = 'Z';
    const std::string variants[] = {last_changed, name + '\0', name.substr(0, length - 1)};

    const std::uint64_t as_app = canonical_hash(two_input_app(name, "x", "y"));
    const std::uint64_t as_data = canonical_hash(two_input_app("x", name, "y"));
    const std::uint64_t as_kernel = canonical_hash(chain_app(name, "y"));
    EXPECT_EQ(as_app, canonical_hash(two_input_app(name, "x", "y")));
    for (const std::string& v : variants) {
      EXPECT_NE(as_app, canonical_hash(two_input_app(v, "x", "y"))) << length;
      EXPECT_NE(as_data, canonical_hash(two_input_app("x", v, "y"))) << length;
      EXPECT_NE(as_kernel, canonical_hash(chain_app(v, "y"))) << length;
    }
  }
}

/// Kernel names per cluster, the form appdsl::write takes.
std::vector<std::vector<std::string>> partition_names(const KernelSchedule& sched) {
  std::vector<std::vector<std::string>> partition;
  for (const Cluster& c : sched.clusters()) {
    std::vector<std::string> names;
    for (const KernelId k : c.kernels) names.push_back(sched.app().kernel(k).name);
    partition.push_back(std::move(names));
  }
  return partition;
}

// Digests of different apps (and schedules) are pairwise distinct over the
// fuzz corpus and family seeds [100000, 104000).  Every family app is
// renamed to one name, so only its content can tell the digests apart; two
// inputs may share a digest only when their texts are equal.
TEST(CanonicalHash, DistinctOverCorpusAndFamily) {
  const arch::M1Config cfg = arch::M1Config::m1_default();
  std::map<std::uint64_t, std::string> apps;
  std::map<std::uint64_t, std::string> schedules;
  const auto add = [&](const std::string& what, const appdsl::ParsedExperiment& exp) {
    const auto [app_at, app_fresh] =
        apps.emplace(canonical_hash(exp.app), appdsl::write(exp.app, {}, cfg));
    if (!app_fresh) {
      EXPECT_EQ(app_at->second, appdsl::write(exp.app, {}, cfg)) << what;
    }
    if (exp.partition.empty()) return;
    const std::string text = appdsl::write(exp.app, exp.partition, cfg);
    const auto [sched_at, sched_fresh] =
        schedules.emplace(canonical_hash(exp.schedule()), text);
    if (!sched_fresh) {
      EXPECT_EQ(sched_at->second, text) << what;
    }
  };

  std::vector<std::filesystem::path> corpus;
  for (const auto& entry : std::filesystem::directory_iterator(MSYS_FUZZ_CORPUS_DIR)) {
    if (entry.path().extension() == ".mapp") corpus.push_back(entry.path());
  }
  std::sort(corpus.begin(), corpus.end());
  for (const std::filesystem::path& path : corpus) {
    const appdsl::ParseResult parsed = appdsl::parse_file_collect(path.string());
    if (parsed.ok()) add(path.filename().string(), *parsed.experiment);
  }
  for (std::uint64_t seed = 100000; seed < 104000; ++seed) {
    const workloads::RandomExperiment exp =
        workloads::make_random(testing::family_spec(seed));
    std::string text = appdsl::write(*exp.app, partition_names(exp.sched), exp.cfg);
    text.replace(4, exp.app->name().size(), "family");
    add("seed " + std::to_string(seed), appdsl::parse(text));
  }
  EXPECT_GE(apps.size(), 4000u);
  EXPECT_GE(schedules.size(), 4000u);
}

TEST(CanonicalHash, M1ConfigSensitivity) {
  const arch::M1Config base = arch::M1Config::m1_default();
  Hasher h0;
  arch::hash_append(h0, base);
  const std::uint64_t base_hash = h0.finalize();

  const auto hash_cfg = [](const arch::M1Config& cfg) {
    Hasher h;
    arch::hash_append(h, cfg);
    return h.finalize();
  };
  EXPECT_EQ(base_hash, hash_cfg(arch::M1Config::m1_default()));
  EXPECT_NE(base_hash, hash_cfg(base.with_fb_set_size(SizeWords{4096})));
  EXPECT_NE(base_hash, hash_cfg(base.with_cm_capacity(1024)));
  EXPECT_NE(base_hash, hash_cfg(base.with_cross_set_reads(true)));
  arch::M1Config dma = base;
  dma.dma.transfer_setup = Cycles{9};
  EXPECT_NE(base_hash, hash_cfg(dma));
}

}  // namespace
}  // namespace msys::model
