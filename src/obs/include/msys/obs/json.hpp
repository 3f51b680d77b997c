// Minimal JSON value + compact writer, without a third-party dependency:
// the Chrome-trace exporter builds its document as JsonValues and writes
// it with write_json.  Numbers are held as double, which is exact for
// every integer the exporter emits (< 2^53).  The reader that parses the
// output back lives with the tests (tests/testing/json_reader.hpp).
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace msys::obs {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
/// std::map keeps members sorted: structural comparison and deterministic
/// re-serialisation come for free.
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  explicit JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit JsonValue(double n) : kind_(Kind::kNumber), number_(n) {}
  explicit JsonValue(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  explicit JsonValue(JsonArray a);
  explicit JsonValue(JsonObject o);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// Checked accessors: throw msys::Error on a kind mismatch (tests want
  /// loud failures, not UB).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const JsonArray& as_array() const;
  [[nodiscard]] const JsonObject& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  friend bool operator==(const JsonValue& a, const JsonValue& b);

 private:
  Kind kind_;
  bool bool_{false};
  double number_{0.0};
  std::string string_;
  // Indirection keeps JsonValue complete at member declaration time.
  std::shared_ptr<const JsonArray> array_;
  std::shared_ptr<const JsonObject> object_;
};

/// Serialises compactly (no whitespace).
[[nodiscard]] std::string write_json(const JsonValue& value);

}  // namespace msys::obs
