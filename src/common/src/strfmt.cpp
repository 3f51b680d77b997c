#include "msys/common/strfmt.hpp"

#include <charconv>
#include <cstdio>

namespace msys {

std::string fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

void append_uint(std::string& out, std::uint64_t value) {
  char buf[20];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, end);
}

std::string percent(double fraction) { return fixed(fraction * 100.0, 1) + "%"; }

std::string size_kb(SizeWords words) {
  const std::uint64_t w = words.value();
  if (w < 1024) return std::to_string(w);
  const double kb = static_cast<double>(w) / 1024.0;
  // Print "3K" rather than "3.0K" for exact multiples.
  if (w % 1024 == 0) return std::to_string(w / 1024) + "K";
  return fixed(kb, 1) + "K";
}

std::string pad_left(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

std::string pad_right(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

}  // namespace msys
