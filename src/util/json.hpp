// Minimal JSON: a strict RFC-8259 parser and writer for experiment
// configuration files (tools/dike_run) and result dumps, plus the strict
// reader every configuration section is decoded through (JsonReader). No
// external dependencies; documents and values are immutable after parsing.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
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

  // Lenient lookups for reading result documents (reports, sweep state,
  // traces); configuration goes through JsonReader instead. All return the
  // fallback (or nullopt) when `this` is not an object, the key is missing,
  // or the type mismatches. NOTE: get() returns a *copy*; do not bind a
  // reference through the returned optional (`const auto& a =
  // v.get("k")->asArray()` dangles) — copy the value or chain within one
  // expression.
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

// --- Strict configuration reading ------------------------------------------

/// A configuration value that cannot be applied: the wrong type, not a whole
/// number where one is expected, outside its field's type or range, or a key
/// its section does not read. The message leads with the value's full dotted
/// path, e.g. "'dike.observer.movingMeanWindow' must be >= 1".
class ConfigError : public std::runtime_error {
 public:
  /// `path` empty names the document itself.
  ConfigError(std::string_view path, std::string_view what);
};

/// Decode the configuration value found at `path` into `out`, or throw
/// ConfigError. Integers must be whole numbers inside the target type's
/// range; an unsigned 64-bit value may also be written as a decimal string
/// (the lossless form above 2^53, which run specs use for seeds).
void decodeValue(const JsonValue& value, std::string_view path, bool& out);
void decodeValue(const JsonValue& value, std::string_view path, double& out);
void decodeValue(const JsonValue& value, std::string_view path,
                 std::string& out);
void decodeValue(const JsonValue& value, std::string_view path, int& out);
void decodeValue(const JsonValue& value, std::string_view path,
                 std::int64_t& out);
void decodeValue(const JsonValue& value, std::string_view path,
                 std::uint64_t& out);

/// The strict reader over one object section of a configuration document.
/// read() decodes a present key into its typed field and leaves the field's
/// default when the key is absent; finish() then rejects every key no read
/// asked for, so a setting is either applied or refused, never ignored.
///
/// Field lists: a section's plain fields are named once, in a visitor
///   constexpr auto kFields = [](auto& c, auto&& field) {
///     field("swapOhMs", c.swapOhMs); ...
///   };
/// that readFields() decodes and encodeFields() encodes, so the two
/// directions cannot drift apart.
class JsonReader {
 public:
  /// Throws ConfigError unless `section` is an object. `path` is its dotted
  /// location ("" for the document root). `section` must outlive the reader.
  JsonReader(const JsonValue& section, std::string path);
  JsonReader(JsonValue&& section, std::string path) = delete;

  /// Decode `key` into `out` when present; returns whether it was.
  template <class T>
  bool read(std::string_view key, T& out) {
    const JsonValue* value = take(key);
    if (value != nullptr) decodeValue(*value, pathOf(key), out);
    return value != nullptr;
  }

  /// read() every field `fields` names.
  template <class T, class Fields>
  void readFields(T& config, const Fields& fields) {
    fields(config,
           [this](std::string_view key, auto& out) { read(key, out); });
  }

  /// The raw value of `key`, marked as read; nullptr when absent.
  [[nodiscard]] const JsonValue* take(std::string_view key);

  /// Read object `key` through a child reader: fn(child), then
  /// child.finish(). Returns whether the key was present.
  template <class Fn>
  bool readObject(std::string_view key, Fn&& fn) {
    const JsonValue* value = take(key);
    if (value == nullptr) return false;
    JsonReader child{*value, pathOf(key)};
    fn(child);
    child.finish();
    return true;
  }

  /// Read array `key` of objects: fn(entry) for each entry, read as the
  /// section `key[i]` and finished. Returns whether the key was present.
  template <class Fn>
  bool readObjects(std::string_view key, Fn&& fn) {
    const JsonValue* value = take(key);
    if (value == nullptr) return false;
    const std::string path = pathOf(key);
    if (!value->isArray()) throw ConfigError{path, "must be an array"};
    const JsonArray& entries = value->asArray();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      JsonReader entry{entries[i], path + "[" + std::to_string(i) + "]"};
      fn(entry);
      entry.finish();
    }
    return true;
  }

  /// The full dotted path of `key` in this section.
  [[nodiscard]] std::string pathOf(std::string_view key) const;

  /// A range check: throw ConfigError "'<path of key>' <what>" unless `ok`.
  void require(bool ok, std::string_view key, std::string_view what) const {
    if (!ok) throw ConfigError{pathOf(key), what};
  }

  /// Throw ConfigError naming the first key no read asked for.
  void finish() const;

 private:
  const JsonObject* object_ = nullptr;
  std::string path_;
  std::vector<const std::string*> taken_;  ///< keys of *object_ read so far
};

/// Encode the fields `fields` names into an object (the writing half of
/// JsonReader::readFields). Numbers are written as JSON numbers (doubles).
template <class T, class Fields>
[[nodiscard]] JsonObject encodeFields(const T& config, const Fields& fields) {
  JsonObject out;
  fields(config, [&out](std::string_view key, const auto& value) {
    using V = std::decay_t<decltype(value)>;
    if constexpr (std::is_arithmetic_v<V> && !std::is_same_v<V, bool>)
      out.emplace(key, static_cast<double>(value));
    else
      out.emplace(key, value);
  });
  return out;
}

}  // namespace dike::util
