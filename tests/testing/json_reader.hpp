// Test-side JSON reader: parses one JSON document into an obs::JsonValue
// and checks a parsed Chrome trace against the exporter's schema.  The
// exporter only writes JSON (obs::write_json); the tests that read its
// output back (the JSON round trip, the trace golden and msysc's --trace
// file) use this.  Full RFC 8259 input grammar (objects, arrays, strings
// with escapes, numbers, bool, null); numbers are held as double, which is
// exact for every integer the exporter emits (< 2^53).
#pragma once

#include <cctype>
#include <charconv>
#include <cstddef>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "msys/common/diagnostic.hpp"
#include "msys/obs/chrome_trace.hpp"
#include "msys/obs/json.hpp"

namespace msys::testing {

struct JsonParseResult {
  std::optional<obs::JsonValue> value;
  /// Parse failure description with a character offset; empty on success.
  std::string error;

  [[nodiscard]] bool ok() const { return value.has_value(); }
};

namespace json_detail {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonParseResult run() {
    JsonParseResult result;
    obs::JsonValue value;
    if (!parse_value(value)) {
      result.error = error_;
      return result;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      result.error = fail("trailing characters after JSON document");
      return result;
    }
    result.value = std::move(value);
    return result;
  }

 private:
  std::string fail(const std::string& what) {
    if (error_.empty()) {
      std::ostringstream out;
      out << what << " at offset " << pos_;
      error_ = out.str();
    }
    return error_;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_value(obs::JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return false;
    }
    switch (text_[pos_]) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': return parse_string_value(out);
      case 't':
      case 'f': return parse_bool(out);
      case 'n': return parse_null(out);
      default: return parse_number(out);
    }
  }

  bool parse_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      fail("invalid literal");
      return false;
    }
    pos_ += lit.size();
    return true;
  }

  bool parse_null(obs::JsonValue& out) {
    if (!parse_literal("null")) return false;
    out = obs::JsonValue();
    return true;
  }

  bool parse_bool(obs::JsonValue& out) {
    if (text_[pos_] == 't') {
      if (!parse_literal("true")) return false;
      out = obs::JsonValue(true);
    } else {
      if (!parse_literal("false")) return false;
      out = obs::JsonValue(false);
    }
    return true;
  }

  bool parse_number(obs::JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    // RFC 8259: no leading zeros ("01" is two tokens, not a number).
    std::size_t digits = start;
    if (digits < text_.size() && text_[digits] == '-') ++digits;
    if (digits + 1 < pos_ && text_[digits] == '0' &&
        std::isdigit(static_cast<unsigned char>(text_[digits + 1]))) {
      pos_ = start;
      fail("invalid number");
      return false;
    }
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc() || end != text_.data() + pos_ || pos_ == start) {
      pos_ = start;
      fail("invalid number");
      return false;
    }
    out = obs::JsonValue(value);
    return true;
  }

  bool parse_string(std::string& out) {
    if (!eat('"')) {
      fail("expected '\"'");
      return false;
    }
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("truncated \\u escape");
              return false;
            }
            unsigned code = 0;
            const auto [end, ec] =
                std::from_chars(text_.data() + pos_, text_.data() + pos_ + 4, code, 16);
            if (ec != std::errc() || end != text_.data() + pos_ + 4) {
              fail("invalid \\u escape");
              return false;
            }
            pos_ += 4;
            // UTF-8 encode the BMP code point (the exporter never emits
            // surrogate pairs; reject them rather than mis-decode).
            if (code >= 0xD800 && code <= 0xDFFF) {
              fail("surrogate \\u escapes are not supported");
              return false;
            }
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default: fail("invalid escape character"); return false;
        }
      } else {
        out.push_back(c);
      }
    }
    fail("unterminated string");
    return false;
  }

  bool parse_string_value(obs::JsonValue& out) {
    std::string s;
    if (!parse_string(s)) return false;
    out = obs::JsonValue(std::move(s));
    return true;
  }

  bool parse_array(obs::JsonValue& out) {
    ++pos_;  // '['
    obs::JsonArray items;
    skip_ws();
    if (eat(']')) {
      out = obs::JsonValue(std::move(items));
      return true;
    }
    for (;;) {
      obs::JsonValue item;
      if (!parse_value(item)) return false;
      items.push_back(std::move(item));
      skip_ws();
      if (eat(']')) break;
      if (!eat(',')) {
        fail("expected ',' or ']' in array");
        return false;
      }
    }
    out = obs::JsonValue(std::move(items));
    return true;
  }

  bool parse_object(obs::JsonValue& out) {
    ++pos_;  // '{'
    obs::JsonObject members;
    skip_ws();
    if (eat('}')) {
      out = obs::JsonValue(std::move(members));
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!eat(':')) {
        fail("expected ':' after object key");
        return false;
      }
      obs::JsonValue value;
      if (!parse_value(value)) return false;
      members.insert_or_assign(std::move(key), std::move(value));
      skip_ws();
      if (eat('}')) break;
      if (!eat(',')) {
        fail("expected ',' or '}' in object");
        return false;
      }
    }
    out = obs::JsonValue(std::move(members));
    return true;
  }

  std::string_view text_;
  std::size_t pos_{0};
  std::string error_;
};

}  // namespace json_detail

/// Parses one JSON document (trailing garbage is an error).
[[nodiscard]] inline JsonParseResult parse_json(std::string_view text) {
  return json_detail::Parser(text).run();
}

/// Structural schema check of a parsed trace document:
/// traceEvents must be an array of objects each carrying name/ph/pid/tid,
/// X events must carry numeric ts and dur, pids must be kWallPid/kSimPid.
/// Returns one diagnostic per violation; empty means the file will load in
/// Perfetto.
[[nodiscard]] inline Diagnostics validate_chrome_trace(const obs::JsonValue& root) {
  Diagnostics diags;
  auto bad = [&diags](const std::string& what) {
    diags.push_back(make_error("trace.schema", what));
  };

  if (!root.is_object()) {
    bad("document root is not an object");
    return diags;
  }
  const obs::JsonValue* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    bad("missing or non-array traceEvents");
    return diags;
  }
  std::size_t index = 0;
  for (const obs::JsonValue& event : events->as_array()) {
    const std::string where = "traceEvents[" + std::to_string(index++) + "]";
    if (!event.is_object()) {
      bad(where + " is not an object");
      continue;
    }
    const obs::JsonValue* ph = event.find("ph");
    if (ph == nullptr || !ph->is_string() || ph->as_string().size() != 1) {
      bad(where + ": missing or malformed ph");
      continue;
    }
    const obs::JsonValue* name = event.find("name");
    if (name == nullptr || !name->is_string() || name->as_string().empty()) {
      bad(where + ": missing name");
    }
    for (const char* key : {"pid", "tid"}) {
      const obs::JsonValue* v = event.find(key);
      if (v == nullptr || !v->is_number()) {
        bad(where + ": missing numeric " + key);
      }
    }
    const obs::JsonValue* pid = event.find("pid");
    if (pid != nullptr && pid->is_number()) {
      const double p = pid->as_number();
      if (p != obs::kWallPid && p != obs::kSimPid) {
        bad(where + ": pid is neither the wall nor the sim process");
      }
    }
    const char phase = ph->as_string()[0];
    if (phase == 'X') {
      for (const char* key : {"ts", "dur"}) {
        const obs::JsonValue* v = event.find(key);
        if (v == nullptr || !v->is_number() || v->as_number() < 0) {
          bad(where + ": X event needs non-negative numeric " + key);
        }
      }
    } else if (phase == 'i') {
      const obs::JsonValue* ts = event.find("ts");
      if (ts == nullptr || !ts->is_number()) bad(where + ": i event needs numeric ts");
    } else if (phase != 'M') {
      bad(where + ": unsupported phase '" + std::string(1, phase) + "'");
    }
  }
  return diags;
}

}  // namespace msys::testing
