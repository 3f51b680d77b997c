#include "msys/common/strfmt.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace msys {
namespace {

TEST(StrFmt, Fixed) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 0), "2");
  EXPECT_EQ(fixed(-1.5, 1), "-1.5");
}

TEST(StrFmt, Percent) {
  EXPECT_EQ(percent(0.195), "19.5%");
  EXPECT_EQ(percent(0.0), "0.0%");
  EXPECT_EQ(percent(1.0), "100.0%");
}

TEST(StrFmt, SizeKbExactMultiples) {
  EXPECT_EQ(size_kb(kilowords(1)), "1K");
  EXPECT_EQ(size_kb(kilowords(8)), "8K");
  EXPECT_EQ(size_kb(SizeWords{2048}), "2K");
}

TEST(StrFmt, SizeKbFractional) {
  EXPECT_EQ(size_kb(SizeWords{1536}), "1.5K");
  EXPECT_EQ(size_kb(SizeWords{819}), "819");  // below 1K: plain words
  EXPECT_EQ(size_kb(SizeWords{0}), "0");
}

TEST(StrFmt, AppendUint) {
  std::string out = "RF=";
  append_uint(out, 0);
  append_uint(out, 42);
  EXPECT_EQ(out, "RF=042");
  out.clear();
  append_uint(out, UINT64_MAX);  // all 20 digits fit
  EXPECT_EQ(out, "18446744073709551615");
}

TEST(StrFmt, ParseIntAcceptsWholeDecimals) {
  std::uint64_t u = 0;
  EXPECT_TRUE(parse_int("0", u));
  EXPECT_EQ(u, 0u);
  EXPECT_TRUE(parse_int("18446744073709551615", u));
  EXPECT_EQ(u, UINT64_MAX);
  int i = 0;
  EXPECT_TRUE(parse_int("-1", i));  // a sign is fine for signed types
  EXPECT_EQ(i, -1);
}

TEST(StrFmt, ParseIntRejectsEverythingElse) {
  for (const char* bad : {"", " 7", "7 ", "+3", "-1", "12abc", "18446744073709551616"}) {
    std::uint64_t u = 99;
    EXPECT_FALSE(parse_int(bad, u)) << '"' << bad << '"';
    EXPECT_EQ(u, 99u) << "written on failure: \"" << bad << '"';
  }
  unsigned narrow = 0;
  EXPECT_FALSE(parse_int("4294967296", narrow));  // 2^32 overflows 32 bits
  int i = 0;
  EXPECT_FALSE(parse_int("+3", i));
}

TEST(StrFmt, Pad) {
  EXPECT_EQ(pad_left("ab", 5), "   ab");
  EXPECT_EQ(pad_right("ab", 5), "ab   ");
  EXPECT_EQ(pad_left("abcdef", 3), "abcdef");  // no truncation
}

}  // namespace
}  // namespace msys
