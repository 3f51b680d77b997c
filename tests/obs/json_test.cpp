// JSON value/parser/writer: RFC 8259 grammar coverage, checked accessors,
// and the write->parse round-trip identity the golden-file test relies on.
#include "msys/obs/json.hpp"

#include <gtest/gtest.h>

#include "msys/common/error.hpp"
#include "testing/json_reader.hpp"

namespace msys::obs {
namespace {

using testing::JsonParseResult;
using testing::parse_json;

JsonValue parse_ok(std::string_view text) {
  JsonParseResult result = parse_json(text);
  EXPECT_TRUE(result.ok()) << "parse failed: " << result.error << " in " << text;
  return result.ok() ? *result.value : JsonValue{};
}

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse_ok("null").is_null());
  EXPECT_TRUE(parse_ok("true").as_bool());
  EXPECT_FALSE(parse_ok("false").as_bool());
  EXPECT_DOUBLE_EQ(parse_ok("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse_ok("-3.25e2").as_number(), -325.0);
  EXPECT_EQ(parse_ok("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesStringEscapes) {
  EXPECT_EQ(parse_ok(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
  EXPECT_EQ(parse_ok(R"("Aé")").as_string(), "A\xc3\xa9");  // A, é
}

TEST(Json, ParsesNestedContainers) {
  const JsonValue v = parse_ok(R"({"a": [1, {"b": true}, "x"], "c": null})");
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(a->as_array()[0].as_number(), 1.0);
  EXPECT_TRUE(a->as_array()[1].find("b")->as_bool());
  EXPECT_NE(v.find("c"), nullptr);
  EXPECT_TRUE(v.find("c")->is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated",
                          "{\"a\" 1}", "[1 2]", "nul", "+1", "01"}) {
    EXPECT_FALSE(parse_json(bad).ok()) << "accepted: " << bad;
  }
}

TEST(Json, RejectsTrailingGarbage) {
  EXPECT_FALSE(parse_json("{} x").ok());
  EXPECT_FALSE(parse_json("1}").ok());
}

TEST(Json, CheckedAccessorsThrowOnKindMismatch) {
  const JsonValue v = parse_ok("42");
  EXPECT_THROW((void)v.as_string(), Error);
  EXPECT_THROW((void)v.as_object(), Error);
  EXPECT_THROW((void)v.as_array(), Error);
  EXPECT_THROW((void)v.as_bool(), Error);
}

TEST(Json, WriteThenParseIsIdentity) {
  const char* docs[] = {
      "null",
      "[1,2.5,true,null,\"s\"]",
      R"({"nested":{"deep":[{"a":1},{"b":[]},{}]},"z":"last"})",
      R"({"esc":"line\nbreak \"q\" \\ tab\t"})",
  };
  for (const char* doc : docs) {
    const JsonValue v = parse_ok(doc);
    const JsonValue back = parse_ok(write_json(v));
    EXPECT_TRUE(v == back) << doc;
  }
}

TEST(Json, IntegersSerialiseWithoutFraction) {
  JsonObject obj;
  obj.emplace("n", JsonValue{123456789.0});
  EXPECT_EQ(write_json(JsonValue{std::move(obj)}), R"({"n":123456789})");
}

TEST(Json, ControlCharactersAreEscapedOnOutput) {
  const std::string out = write_json(JsonValue{std::string("a\x01" "b\n")});
  EXPECT_EQ(out, "\"a\\u0001b\\n\"");
  EXPECT_EQ(parse_ok(out).as_string(), "a\x01" "b\n");
}

}  // namespace
}  // namespace msys::obs
