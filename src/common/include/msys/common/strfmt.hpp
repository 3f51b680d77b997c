// Minimal string-formatting helpers (libstdc++ 12 ships no <format>).
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

#include "msys/common/types.hpp"

namespace msys {

/// Fixed-point decimal, e.g. fixed(3.14159, 2) == "3.14".
[[nodiscard]] std::string fixed(double value, int decimals);

/// Percentage with one decimal, e.g. percent(0.195) == "19.5%".
[[nodiscard]] std::string percent(double fraction);

/// Size rendered the way the paper's Table 1 prints it: multiples of 1K as
/// "2K"/"0.8K"/"0.1K", smaller values as plain word counts.
[[nodiscard]] std::string size_kb(SizeWords words);

/// Appends the decimal digits of `value` to `out` (no locale, no stream).
void append_uint(std::string& out, std::uint64_t value);

/// Strict base-10 integer parse of the whole of `text` into `out`: no
/// whitespace, no '+', a '-' only for signed types, no trailing bytes and
/// no out-of-range values ("12abc", " 7", "" and 2^64 into a u64 all fail).
/// `out` is written only on success.
template <class Int>
[[nodiscard]] bool parse_int(std::string_view text, Int& out) {
  Int value{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || ptr != last) return false;
  out = value;
  return true;
}

/// Left/right pad to a column width (no truncation).
[[nodiscard]] std::string pad_left(const std::string& s, std::size_t width);
[[nodiscard]] std::string pad_right(const std::string& s, std::size_t width);

}  // namespace msys
