#include "msys/common/extent.hpp"

#include <gtest/gtest.h>

namespace msys {
namespace {

TEST(Extent, Basics) {
  Extent e{10, SizeWords{5}};
  EXPECT_EQ(e.begin(), 10u);
  EXPECT_EQ(e.end(), 15u);
  EXPECT_FALSE(e.empty());
  EXPECT_TRUE((Extent{3, SizeWords{0}}).empty());
}

TEST(Extent, Overlaps) {
  Extent a{0, SizeWords{10}};
  EXPECT_TRUE(a.overlaps(Extent{5, SizeWords{10}}));
  EXPECT_TRUE(a.overlaps(Extent{0, SizeWords{1}}));
  EXPECT_FALSE(a.overlaps(Extent{10, SizeWords{5}}));  // abutting, half-open
  EXPECT_FALSE(a.overlaps(Extent{20, SizeWords{5}}));
  EXPECT_TRUE((Extent{5, SizeWords{2}}).overlaps(Extent{0, SizeWords{10}}));
}

TEST(Extent, Contains) {
  Extent a{10, SizeWords{10}};
  EXPECT_TRUE(a.contains(Extent{10, SizeWords{10}}));
  EXPECT_TRUE(a.contains(Extent{12, SizeWords{3}}));
  EXPECT_FALSE(a.contains(Extent{5, SizeWords{10}}));
  EXPECT_FALSE(a.contains(Extent{15, SizeWords{10}}));
}

TEST(Extent, Abuts) {
  EXPECT_TRUE((Extent{0, SizeWords{5}}).abuts(Extent{5, SizeWords{5}}));
  EXPECT_TRUE((Extent{5, SizeWords{5}}).abuts(Extent{0, SizeWords{5}}));
  EXPECT_FALSE((Extent{0, SizeWords{5}}).abuts(Extent{6, SizeWords{5}}));
}

TEST(Extent, TotalSize) {
  using Extents = std::vector<Extent>;
  EXPECT_EQ(total_size({}), SizeWords::zero());
  EXPECT_EQ(total_size(Extents{{0, SizeWords{5}}, {10, SizeWords{7}}}), SizeWords{12});
}

TEST(Extent, Disjoint) {
  using Extents = std::vector<Extent>;
  EXPECT_TRUE(disjoint({}));
  EXPECT_TRUE(disjoint(Extents{{0, SizeWords{5}}}));
  EXPECT_TRUE(disjoint(Extents{{3, SizeWords{0}}}));
  EXPECT_TRUE(disjoint(Extents{{0, SizeWords{5}}, {5, SizeWords{5}}}));
  EXPECT_TRUE(disjoint(Extents{{10, SizeWords{5}}, {0, SizeWords{5}}}));  // order-independent
  EXPECT_FALSE(disjoint(Extents{{0, SizeWords{6}}, {5, SizeWords{5}}}));
}

TEST(Extent, NormalizedSortsAndCoalesces) {
  std::vector<Extent> extents = {{10, SizeWords{5}}, {0, SizeWords{5}}, {5, SizeWords{5}}};
  std::vector<Extent> norm = normalized(extents);
  ASSERT_EQ(norm.size(), 1u);
  EXPECT_EQ(norm[0], (Extent{0, SizeWords{15}}));
}

TEST(Extent, NormalizedDropsEmptyAndKeepsGaps) {
  std::vector<Extent> norm =
      normalized({{0, SizeWords{5}}, {7, SizeWords{0}}, {10, SizeWords{2}}});
  ASSERT_EQ(norm.size(), 2u);
  EXPECT_EQ(norm[0], (Extent{0, SizeWords{5}}));
  EXPECT_EQ(norm[1], (Extent{10, SizeWords{2}}));
}

TEST(Extent, NormalizedMergesOverlapping) {
  std::vector<Extent> norm = normalized({{0, SizeWords{8}}, {4, SizeWords{10}}});
  ASSERT_EQ(norm.size(), 1u);
  EXPECT_EQ(norm[0], (Extent{0, SizeWords{14}}));
}

}  // namespace
}  // namespace msys
