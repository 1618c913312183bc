// Minimal JSON: a strict RFC-8259 parser and writer for experiment
// configuration files (tools/dike_run) and result dumps. No external
// dependencies; documents and values are immutable after parsing.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace dike::util {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
/// Object keys keep insertion order out of scope — std::map is fine for
/// configuration-sized documents and gives deterministic serialisation.
using JsonObject = std::map<std::string, JsonValue, std::less<>>;

/// One JSON value. Numbers are stored as double (configuration files never
/// need 64-bit-exact integers above 2^53).
class JsonValue {
 public:
  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool b) : value_(b) {}
  JsonValue(double d) : value_(d) {}
  JsonValue(int i) : value_(static_cast<double>(i)) {}
  JsonValue(std::int64_t i) : value_(static_cast<double>(i)) {}
  JsonValue(const char* s) : value_(std::string{s}) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(JsonArray a) : value_(std::move(a)) {}
  JsonValue(JsonObject o) : value_(std::move(o)) {}

  [[nodiscard]] bool isNull() const noexcept {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  [[nodiscard]] bool isBool() const noexcept {
    return std::holds_alternative<bool>(value_);
  }
  [[nodiscard]] bool isNumber() const noexcept {
    return std::holds_alternative<double>(value_);
  }
  [[nodiscard]] bool isString() const noexcept {
    return std::holds_alternative<std::string>(value_);
  }
  [[nodiscard]] bool isArray() const noexcept {
    return std::holds_alternative<JsonArray>(value_);
  }
  [[nodiscard]] bool isObject() const noexcept {
    return std::holds_alternative<JsonObject>(value_);
  }

  /// Checked accessors: throw std::runtime_error on type mismatch.
  [[nodiscard]] bool asBool() const;
  [[nodiscard]] double asNumber() const;
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] const JsonArray& asArray() const;
  [[nodiscard]] const JsonObject& asObject() const;

  // Convenience lookups for configuration reading. All return the fallback
  // (or nullopt) when `this` is not an object, the key is missing, or the
  // type mismatches. NOTE: get() returns a *copy*; do not bind a reference
  // through the returned optional (`const auto& a = v.get("k")->asArray()`
  // dangles) — copy the value or chain within one expression.
  [[nodiscard]] std::optional<JsonValue> get(std::string_view key) const;
  [[nodiscard]] double numberOr(std::string_view key, double fallback) const;
  [[nodiscard]] int intOr(std::string_view key, int fallback) const;
  [[nodiscard]] bool boolOr(std::string_view key, bool fallback) const;
  [[nodiscard]] std::string stringOr(std::string_view key,
                                     std::string_view fallback) const;

  /// Serialise (compact; `indent` > 0 pretty-prints).
  [[nodiscard]] std::string dump(int indent = 0) const;

  [[nodiscard]] friend bool operator==(const JsonValue&, const JsonValue&) =
      default;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

/// Parse a complete JSON document. Throws JsonParseError with a byte offset
/// and message on malformed input (trailing garbage included).
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(std::size_t offset, const std::string& message);
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

[[nodiscard]] JsonValue parseJson(std::string_view text);

// The writer's two leaf encoders, for code that emits JSON text directly
// instead of building a JsonValue tree (the quantum stream): same bytes as
// dump().

/// Append `s` as a quoted JSON string: `"` and `\` escaped, \b \f \n \r \t
/// short-escaped, other control bytes as \u00XX, every other byte verbatim.
void appendJsonString(std::string& out, std::string_view s);

/// Append `d` as dump() prints numbers: a finite integral value below 1e15
/// in magnitude as an exact integer, everything else as printf("%.17g")
/// would (see util::appendGeneral). NaN and infinities print as "nan" /
/// "inf", which JSON cannot hold — callers that may see them write null.
void appendJsonNumber(std::string& out, double d);

/// Parse a JSON file; wraps I/O failures in std::runtime_error.
[[nodiscard]] JsonValue parseJsonFile(const std::string& path);

}  // namespace dike::util
