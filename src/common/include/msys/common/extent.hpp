// Address-range arithmetic for the Frame Buffer allocator.
//
// An Extent is a half-open interval [addr, addr + size) of FB words inside
// one Frame Buffer set.  The allocator (src/alloc) manipulates sorted,
// coalesced lists of free extents; placements are lists of extents so that
// a datum split across free blocks (paper §5, last paragraph) is still a
// single logical allocation.
#pragma once

#include <cstdint>
#include <compare>
#include <span>
#include <string>
#include <vector>

#include "msys/common/types.hpp"

namespace msys {

/// Word address inside one Frame Buffer set (0 .. FBS-1).
using FbAddr = std::uint64_t;

/// Half-open range of Frame Buffer words.
struct Extent {
  FbAddr addr{0};
  SizeWords size{0};

  [[nodiscard]] constexpr FbAddr begin() const { return addr; }
  [[nodiscard]] constexpr FbAddr end() const { return addr + size.value(); }
  [[nodiscard]] constexpr bool empty() const { return size.value() == 0; }

  friend constexpr auto operator<=>(const Extent&, const Extent&) = default;

  [[nodiscard]] constexpr bool overlaps(const Extent& other) const {
    return begin() < other.end() && other.begin() < end();
  }
  [[nodiscard]] constexpr bool contains(const Extent& other) const {
    return begin() <= other.begin() && other.end() <= end();
  }
  /// True when `other` starts exactly where this extent ends (coalescable).
  [[nodiscard]] constexpr bool abuts(const Extent& other) const {
    return end() == other.begin() || other.end() == begin();
  }
};

[[nodiscard]] std::string to_string(const Extent& e);

/// Total words covered by a list of extents.
[[nodiscard]] SizeWords total_size(std::span<const Extent> extents);

/// True iff no two extents in the list overlap (order-independent).
[[nodiscard]] bool disjoint(std::span<const Extent> extents);

/// Sorts by address and merges abutting/overlapping extents into the
/// canonical minimal representation.
[[nodiscard]] std::vector<Extent> normalized(std::vector<Extent> extents);

}  // namespace msys
