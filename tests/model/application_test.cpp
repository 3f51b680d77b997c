#include "msys/model/application.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "msys/common/error.hpp"

namespace msys::model {
namespace {

Application simple_chain() {
  ApplicationBuilder b("chain", 4);
  DataId a = b.external_input("a", SizeWords{10});
  KernelId k1 = b.kernel("k1", 8, Cycles{50}, {a});
  DataId t = b.output(k1, "t", SizeWords{5});
  KernelId k2 = b.kernel("k2", 8, Cycles{60}, {t});
  b.output(k2, "r", SizeWords{3}, true);
  return std::move(b).build();
}

TEST(ApplicationBuilder, BuildsChain) {
  Application app = simple_chain();
  EXPECT_EQ(app.name(), "chain");
  EXPECT_EQ(app.total_iterations(), 4u);
  EXPECT_EQ(app.kernel_count(), 2u);
  EXPECT_EQ(app.data_count(), 3u);
}

TEST(ApplicationBuilder, DataKindsDerived) {
  Application app = simple_chain();
  EXPECT_EQ(app.data(*app.find_data("a")).kind(), DataKind::kExternalInput);
  EXPECT_EQ(app.data(*app.find_data("t")).kind(), DataKind::kIntermediate);
  EXPECT_EQ(app.data(*app.find_data("r")).kind(), DataKind::kFinalResult);
}

TEST(ApplicationBuilder, ConsumersRecorded) {
  Application app = simple_chain();
  const DataObject& t = app.data(*app.find_data("t"));
  ASSERT_EQ(t.consumers.size(), 1u);
  EXPECT_EQ(t.consumers[0], *app.find_kernel("k2"));
  EXPECT_EQ(t.producer, *app.find_kernel("k1"));
}

TEST(ApplicationBuilder, RejectsZeroIterations) {
  EXPECT_THROW(ApplicationBuilder("x", 0), Error);
}

TEST(ApplicationBuilder, RejectsEmptyName) { EXPECT_THROW(ApplicationBuilder("", 1), Error); }

TEST(ApplicationBuilder, RejectsZeroSizeData) {
  ApplicationBuilder b("x", 1);
  EXPECT_THROW(b.external_input("d", SizeWords{0}), Error);
}

TEST(ApplicationBuilder, RejectsZeroLatencyKernel) {
  ApplicationBuilder b("x", 1);
  DataId d = b.external_input("d", SizeWords{1});
  EXPECT_THROW(b.kernel("k", 8, Cycles{0}, {d}), Error);
}

TEST(ApplicationBuilder, RejectsZeroContextKernel) {
  ApplicationBuilder b("x", 1);
  DataId d = b.external_input("d", SizeWords{1});
  EXPECT_THROW(b.kernel("k", 0, Cycles{10}, {d}), Error);
}

TEST(ApplicationBuilder, RejectsUnconsumedInput) {
  ApplicationBuilder b("x", 1);
  b.external_input("dangling", SizeWords{4});
  DataId d = b.external_input("d", SizeWords{1});
  KernelId k = b.kernel("k", 8, Cycles{10}, {d});
  b.output(k, "r", SizeWords{1}, true);
  EXPECT_THROW(std::move(b).build(), Error);
}

TEST(ApplicationBuilder, RejectsUselessResult) {
  // A result with no consumers and no external requirement is dead code.
  ApplicationBuilder b("x", 1);
  DataId d = b.external_input("d", SizeWords{1});
  KernelId k = b.kernel("k", 8, Cycles{10}, {d});
  b.output(k, "r", SizeWords{1}, /*required_in_external_memory=*/false);
  EXPECT_THROW(std::move(b).build(), Error);
}

TEST(ApplicationBuilder, RejectsSelfLoop) {
  ApplicationBuilder b("x", 1);
  DataId d = b.external_input("d", SizeWords{1});
  KernelId k = b.kernel("k", 8, Cycles{10}, {d});
  DataId out = b.output(k, "r", SizeWords{1}, true);
  EXPECT_THROW(b.add_input(k, out), Error);
}

TEST(ApplicationBuilder, RejectsCycle) {
  ApplicationBuilder b("x", 1);
  DataId d = b.external_input("d", SizeWords{1});
  KernelId k1 = b.kernel("k1", 8, Cycles{10}, {d});
  KernelId k2 = b.kernel("k2", 8, Cycles{10}, {});
  DataId o1 = b.output(k1, "o1", SizeWords{1});
  DataId o2 = b.output(k2, "o2", SizeWords{1});
  b.add_input(k2, o1);
  b.add_input(k1, o2);  // closes the cycle
  EXPECT_THROW(std::move(b).build(), Error);
}

TEST(ApplicationBuilder, MarkFinal) {
  ApplicationBuilder b("x", 1);
  DataId d = b.external_input("d", SizeWords{1});
  KernelId k = b.kernel("k", 8, Cycles{10}, {d});
  DataId out = b.output(k, "r", SizeWords{1});
  b.mark_final(out);
  Application app = std::move(b).build();
  EXPECT_TRUE(app.data(out).required_in_external_memory);
}

TEST(ApplicationBuilder, MarkFinalRejectsExternalInput) {
  ApplicationBuilder b("x", 1);
  DataId d = b.external_input("d", SizeWords{1});
  EXPECT_THROW(b.mark_final(d), Error);
}

TEST(ApplicationBuilder, DuplicateInputIgnored) {
  ApplicationBuilder b("x", 1);
  DataId d = b.external_input("d", SizeWords{1});
  KernelId k = b.kernel("k", 8, Cycles{10}, {d, d});
  b.output(k, "r", SizeWords{1}, true);
  Application app = std::move(b).build();
  EXPECT_EQ(app.kernel(k).inputs.size(), 1u);
}

TEST(Application, TopologicalOrderRespectsDeps) {
  Application app = simple_chain();
  EXPECT_TRUE(app.respects_dependencies(app.topological_order()));
}

TEST(Application, RespectsDependenciesRejectsReversal) {
  Application app = simple_chain();
  std::vector<KernelId> reversed = app.topological_order();
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_FALSE(app.respects_dependencies(reversed));
}

TEST(Application, RespectsDependenciesRejectsDuplicates) {
  Application app = simple_chain();
  std::vector<KernelId> dup = {app.topological_order()[0], app.topological_order()[0]};
  EXPECT_FALSE(app.respects_dependencies(dup));
}

TEST(Application, TotalSizes) {
  Application app = simple_chain();
  EXPECT_EQ(app.total_data_size(), SizeWords{18});
  EXPECT_EQ(app.total_context_words(), 16u);
}

TEST(Application, FindByName) {
  Application app = simple_chain();
  EXPECT_TRUE(app.find_kernel("k1").has_value());
  EXPECT_FALSE(app.find_kernel("nope").has_value());
  EXPECT_TRUE(app.find_data("t").has_value());
  EXPECT_FALSE(app.find_data("nope").has_value());
}

/// Every kernel's inputs and outputs and every object's consumers, as ids.
struct Adjacency {
  std::vector<std::vector<std::uint32_t>> inputs, outputs, consumers;
  bool operator==(const Adjacency&) const = default;
};

Adjacency adjacency_of(const Application& app) {
  Adjacency a;
  for (const Kernel& k : app.kernels()) {
    a.inputs.emplace_back();
    for (const DataId d : k.inputs) a.inputs.back().push_back(d.index());
    a.outputs.emplace_back();
    for (const DataId d : k.outputs) a.outputs.back().push_back(d.index());
  }
  for (const DataObject& d : app.data_objects()) {
    a.consumers.emplace_back();
    for (const KernelId k : d.consumers) a.consumers.back().push_back(k.index());
  }
  return a;
}

/// Edges added out of kernel order and repeated, so that the adjacency
/// keeps insertion order and drops repeats.
std::unique_ptr<Application> interleaved_app() {
  ApplicationBuilder b("interleaved", 2);
  const DataId a = b.external_input("a", SizeWords{4});
  const DataId c = b.external_input("c", SizeWords{4});
  const KernelId k1 = b.kernel("k1", 8, Cycles{10}, {c});
  const KernelId k2 = b.kernel("k2", 8, Cycles{10});
  const DataId t = b.output(k1, "t", SizeWords{2});
  const DataId u = b.output(k1, "u", SizeWords{2}, true);
  b.add_input(k2, t);
  b.add_input(k1, a);
  b.add_input(k2, a);
  b.add_input(k1, c);
  b.add_input(k2, u);
  b.output(k2, "r", SizeWords{1}, true);
  return std::make_unique<Application>(std::move(b).build());
}

TEST(ApplicationTest, AdjacencyKeepsInsertionOrderWithoutRepeats) {
  const Adjacency a = adjacency_of(*interleaved_app());
  EXPECT_EQ(a.inputs, (std::vector<std::vector<std::uint32_t>>{{1, 0}, {2, 0, 3}}));
  EXPECT_EQ(a.outputs, (std::vector<std::vector<std::uint32_t>>{{2, 3}, {4}}));
  EXPECT_EQ(a.consumers, (std::vector<std::vector<std::uint32_t>>{{0, 1}, {0}, {1}, {1}, {}}));
}

// The adjacency is spans into the Application's own arrays: a copy must
// re-point them at its arrays and a move must carry the arrays along, so
// that each reads right after its source is gone (ASan sees a dangling
// span here).
TEST(ApplicationTest, CopiesAndMovesOwnTheirAdjacency) {
  const Adjacency expected = adjacency_of(*interleaved_app());

  std::unique_ptr<Application> source = interleaved_app();
  const Application copied(*source);
  Application copy_assigned = simple_chain();
  copy_assigned = *source;
  source.reset();
  EXPECT_EQ(adjacency_of(copied), expected);
  EXPECT_EQ(adjacency_of(copy_assigned), expected);
  EXPECT_EQ(copied.topological_order(), copy_assigned.topological_order());

  source = interleaved_app();
  const Application moved(std::move(*source));
  source.reset();
  EXPECT_EQ(adjacency_of(moved), expected);

  source = interleaved_app();
  Application move_assigned = simple_chain();
  move_assigned = std::move(*source);
  source.reset();
  EXPECT_EQ(adjacency_of(move_assigned), expected);
  EXPECT_EQ(move_assigned.name(), "interleaved");
}

}  // namespace
}  // namespace msys::model
