#include "msys/obs/json.hpp"

#include <cmath>
#include <sstream>
#include <utility>

#include "msys/common/error.hpp"

namespace msys::obs {

JsonValue::JsonValue(JsonArray a)
    : kind_(Kind::kArray), array_(std::make_shared<const JsonArray>(std::move(a))) {}

JsonValue::JsonValue(JsonObject o)
    : kind_(Kind::kObject), object_(std::make_shared<const JsonObject>(std::move(o))) {}

bool JsonValue::as_bool() const {
  MSYS_REQUIRE(is_bool(), "JSON value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  MSYS_REQUIRE(is_number(), "JSON value is not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  MSYS_REQUIRE(is_string(), "JSON value is not a string");
  return string_;
}

const JsonArray& JsonValue::as_array() const {
  MSYS_REQUIRE(is_array(), "JSON value is not an array");
  return *array_;
}

const JsonObject& JsonValue::as_object() const {
  MSYS_REQUIRE(is_object(), "JSON value is not an object");
  return *object_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const auto it = object_->find(std::string(key));
  return it == object_->end() ? nullptr : &it->second;
}

bool operator==(const JsonValue& a, const JsonValue& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case JsonValue::Kind::kNull: return true;
    case JsonValue::Kind::kBool: return a.bool_ == b.bool_;
    case JsonValue::Kind::kNumber: return a.number_ == b.number_;
    case JsonValue::Kind::kString: return a.string_ == b.string_;
    case JsonValue::Kind::kArray: return *a.array_ == *b.array_;
    case JsonValue::Kind::kObject: return *a.object_ == *b.object_;
  }
  return false;
}

namespace {

void write_value(std::ostream& out, const JsonValue& value);

void write_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\b': out << "\\b"; break;
      case '\f': out << "\\f"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          out << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void write_number(std::ostream& out, double n) {
  // Integers (the exporter's common case) print without a fraction.
  if (n == std::floor(n) && std::abs(n) < 9.007199254740992e15) {
    out << static_cast<long long>(n);
    return;
  }
  std::ostringstream tmp;
  tmp.precision(17);
  tmp << n;
  out << tmp.str();
}

void write_value(std::ostream& out, const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull: out << "null"; break;
    case JsonValue::Kind::kBool: out << (value.as_bool() ? "true" : "false"); break;
    case JsonValue::Kind::kNumber: write_number(out, value.as_number()); break;
    case JsonValue::Kind::kString: write_string(out, value.as_string()); break;
    case JsonValue::Kind::kArray: {
      out << '[';
      const JsonArray& items = value.as_array();
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out << ',';
        write_value(out, items[i]);
      }
      out << ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      out << '{';
      bool first = true;
      for (const auto& [key, member] : value.as_object()) {
        if (!first) out << ',';
        first = false;
        write_string(out, key);
        out << ':';
        write_value(out, member);
      }
      out << '}';
      break;
    }
  }
}

}  // namespace

std::string write_json(const JsonValue& value) {
  std::ostringstream out;
  write_value(out, value);
  return out.str();
}

}  // namespace msys::obs
