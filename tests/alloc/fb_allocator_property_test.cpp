// Randomised property tests for the Frame Buffer allocator: a fuzzing
// driver performs a seeded random sequence of allocations and releases and
// asserts the structural invariants after every step.
#include <gtest/gtest.h>

#include <map>
#include <type_traits>
#include <vector>

#include "msys/alloc/fb_allocator.hpp"
#include "msys/common/rng.hpp"

namespace msys::alloc {
namespace {

// gtest prints a Params as its raw bytes into each case's ctest name
// ("# GetParam() = 16-byte object <...>"), so the padding after the two
// one-byte fields is spelled out and zeroed: left implicit, it carried
// whatever the stack held and the names changed from build to build.
struct Params {
  std::uint64_t seed;
  FitPolicy policy;
  bool allow_split;
  std::uint8_t padding[6]{};
};
static_assert(std::has_unique_object_representations_v<Params>,
              "every byte of Params is a named, initialised field");

class AllocatorFuzz : public ::testing::TestWithParam<Params> {};

/// All live extents across allocations are mutually disjoint and in range.
void check_invariants(const FrameBufferAllocator& fb,
                      const std::map<int, Allocation>& live, SizeWords capacity) {
  std::vector<Extent> all;
  for (const auto& [id, alloc] : live) {
    for (const Extent& e : alloc.extents) {
      ASSERT_FALSE(e.empty());
      ASSERT_LE(e.end(), capacity.value());
      all.push_back(e);
    }
  }
  ASSERT_TRUE(disjoint(all));
  for (const Extent& f : fb.free_list()) {
    for (const Extent& e : all) {
      ASSERT_FALSE(f.overlaps(e)) << "free list overlaps a live allocation";
    }
  }
  // Conservation: live words + free words == capacity.
  ASSERT_EQ(total_size(all) + fb.free_words(), capacity);
  // Free list is sorted and coalesced (no two abutting blocks).
  const std::vector<Extent>& fl = fb.free_list();
  for (std::size_t i = 1; i < fl.size(); ++i) {
    ASSERT_LT(fl[i - 1].end(), fl[i].begin());
  }
}

TEST_P(AllocatorFuzz, InvariantsHoldUnderRandomWorkload) {
  const Params params = GetParam();
  const SizeWords capacity{1024};
  FrameBufferAllocator fb(capacity, params.policy);
  Rng rng(params.seed);

  std::map<int, Allocation> live;
  int next_id = 0;
  for (int step = 0; step < 600; ++step) {
    const bool do_alloc = live.empty() || rng.chance(3, 5);
    if (do_alloc) {
      const SizeWords size{rng.uniform(1, 200)};
      const AllocEnd end = rng.chance(1, 2) ? AllocEnd::kTop : AllocEnd::kBottom;
      auto a = fb.allocate(size, end, {}, params.allow_split);
      if (a.has_value()) {
        ASSERT_EQ(a->size(), size);
        if (!params.allow_split) {
          ASSERT_EQ(a->extents.size(), 1u);
        }
        live.emplace(next_id++, *a);
      } else {
        // Failure legitimate only when the request genuinely cannot be
        // satisfied under the policy.
        if (params.allow_split) {
          ASSERT_LT(fb.free_words().value(), size.value());
        } else {
          ASSERT_LT(fb.largest_free_block().value(), size.value());
        }
      }
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.uniform(0, live.size() - 1)));
      fb.release(it->second);
      live.erase(it);
    }
    check_invariants(fb, live, capacity);
  }
  for (const auto& [id, alloc] : live) fb.release(alloc);
  ASSERT_TRUE(fb.all_free());
}

TEST_P(AllocatorFuzz, RegularityHintsNeverBreakInvariants) {
  const Params params = GetParam();
  const SizeWords capacity{512};
  FrameBufferAllocator fb(capacity, params.policy);
  Rng rng(params.seed ^ 0xabcdef);

  std::map<int, Allocation> live;
  std::vector<Extent> last_extents;
  int next_id = 0;
  for (int step = 0; step < 300; ++step) {
    if (live.empty() || rng.chance(3, 5)) {
      const SizeWords size{rng.uniform(1, 80)};
      // Feed the previous allocation's extents back as a (usually bogus)
      // hint: the allocator must only take it when it matches and is free.
      auto a = fb.allocate(size, AllocEnd::kTop, last_extents, params.allow_split);
      if (a.has_value()) {
        ASSERT_EQ(a->size(), size);
        last_extents = a->extents;
        live.emplace(next_id++, *a);
      }
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.uniform(0, live.size() - 1)));
      fb.release(it->second);
      live.erase(it);
    }
    check_invariants(fb, live, capacity);
  }
}

std::vector<Params> fuzz_params() {
  std::vector<Params> params;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    params.push_back({seed, FitPolicy::kFirstFit, true});
    params.push_back({seed, FitPolicy::kFirstFit, false});
    params.push_back({seed, FitPolicy::kBestFit, true});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorFuzz, ::testing::ValuesIn(fuzz_params()),
                         [](const ::testing::TestParamInfo<Params>& info) {
                           const Params& p = info.param;
                           std::string name = "seed" + std::to_string(p.seed);
                           name += p.policy == FitPolicy::kFirstFit ? "_first" : "_best";
                           name += p.allow_split ? "_split" : "_nosplit";
                           return name;
                         });

}  // namespace
}  // namespace msys::alloc
