#include "msys/common/extent.hpp"

#include <algorithm>
#include <sstream>

namespace msys {

std::string to_string(const Extent& e) {
  std::ostringstream out;
  out << '[' << e.begin() << ',' << e.end() << ')';
  return out.str();
}

SizeWords total_size(std::span<const Extent> extents) {
  SizeWords total = SizeWords::zero();
  for (const Extent& e : extents) total += e.size;
  return total;
}

bool disjoint(std::span<const Extent> extents) {
  if (extents.size() < 2) return true;  // the common unsplit placement: no copy
  std::vector<Extent> sorted(extents.begin(), extents.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const Extent& a, const Extent& b) { return a.addr < b.addr; });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i - 1].end() > sorted[i].begin()) return false;
  }
  return true;
}

std::vector<Extent> normalized(std::vector<Extent> extents) {
  std::erase_if(extents, [](const Extent& e) { return e.empty(); });
  std::sort(extents.begin(), extents.end(),
            [](const Extent& a, const Extent& b) { return a.addr < b.addr; });
  std::vector<Extent> out;
  for (const Extent& e : extents) {
    if (!out.empty() && out.back().end() >= e.begin()) {
      FbAddr new_end = std::max(out.back().end(), e.end());
      out.back().size = SizeWords{new_end - out.back().begin()};
    } else {
      out.push_back(e);
    }
  }
  return out;
}

}  // namespace msys
