#include "util/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "util/number_text.hpp"

namespace dike::util {

bool JsonValue::asBool() const {
  if (!isBool()) throw std::runtime_error{"JSON value is not a bool"};
  return std::get<bool>(value_);
}

double JsonValue::asNumber() const {
  if (!isNumber()) throw std::runtime_error{"JSON value is not a number"};
  return std::get<double>(value_);
}

const std::string& JsonValue::asString() const {
  if (!isString()) throw std::runtime_error{"JSON value is not a string"};
  return std::get<std::string>(value_);
}

const JsonArray& JsonValue::asArray() const {
  if (!isArray()) throw std::runtime_error{"JSON value is not an array"};
  return std::get<JsonArray>(value_);
}

const JsonObject& JsonValue::asObject() const {
  if (!isObject()) throw std::runtime_error{"JSON value is not an object"};
  return std::get<JsonObject>(value_);
}

std::optional<JsonValue> JsonValue::get(std::string_view key) const {
  if (!isObject()) return std::nullopt;
  const JsonObject& obj = std::get<JsonObject>(value_);
  const auto it = obj.find(key);
  if (it == obj.end()) return std::nullopt;
  return it->second;
}

double JsonValue::numberOr(std::string_view key, double fallback) const {
  const auto v = get(key);
  return v && v->isNumber() ? v->asNumber() : fallback;
}

int JsonValue::intOr(std::string_view key, int fallback) const {
  const auto v = get(key);
  return v && v->isNumber() ? static_cast<int>(v->asNumber()) : fallback;
}

bool JsonValue::boolOr(std::string_view key, bool fallback) const {
  const auto v = get(key);
  return v && v->isBool() ? v->asBool() : fallback;
}

std::string JsonValue::stringOr(std::string_view key,
                                std::string_view fallback) const {
  const auto v = get(key);
  return v && v->isString() ? v->asString() : std::string{fallback};
}

namespace {

/// "'<path>' <what>", or "document <what>" for the empty path. Appended
/// into one buffer: GCC 12 misreports the inlined copies of an
/// `"'" + std::string{path} + "'"` chain under -O3 (-Wrestrict).
std::string configErrorMessage(std::string_view path, std::string_view what) {
  std::string message;
  if (path.empty()) {
    message.append("document");
  } else {
    message.push_back('\'');
    message.append(path);
    message.push_back('\'');
  }
  message.push_back(' ');
  message.append(what);
  return message;
}

}  // namespace

ConfigError::ConfigError(std::string_view path, std::string_view what)
    : std::runtime_error{configErrorMessage(path, what)} {}

void decodeValue(const JsonValue& value, std::string_view path, bool& out) {
  if (!value.isBool()) throw ConfigError{path, "must be a boolean"};
  out = value.asBool();
}

void decodeValue(const JsonValue& value, std::string_view path,
                 double& out) {
  if (!value.isNumber()) throw ConfigError{path, "must be a number"};
  out = value.asNumber();
}

void decodeValue(const JsonValue& value, std::string_view path,
                 std::string& out) {
  if (!value.isString()) throw ConfigError{path, "must be a string"};
  out = value.asString();
}

namespace {

/// `value` as a whole number of the integer type T. Both bounds of T's range
/// are exact doubles (zero or a power of two), so the cast is defined.
template <class T>
T wholeNumber(const JsonValue& value, std::string_view path) {
  if (!value.isNumber()) throw ConfigError{path, "must be an integer"};
  const double d = value.asNumber();
  if (d != std::trunc(d)) throw ConfigError{path, "must be an integer"};
  const double lo = static_cast<double>(std::numeric_limits<T>::min());
  const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (d < lo || d >= hi) {
    std::string what = "must be an integer in [";
    appendJsonNumber(what, lo);
    what += ", ";
    appendJsonNumber(what, hi);
    what += ")";
    throw ConfigError{path, what};
  }
  return static_cast<T>(d);
}

}  // namespace

void decodeValue(const JsonValue& value, std::string_view path, int& out) {
  out = wholeNumber<int>(value, path);
}

void decodeValue(const JsonValue& value, std::string_view path,
                 std::int64_t& out) {
  out = wholeNumber<std::int64_t>(value, path);
}

void decodeValue(const JsonValue& value, std::string_view path,
                 std::uint64_t& out) {
  if (!value.isString()) {
    out = wholeNumber<std::uint64_t>(value, path);
    return;
  }
  const std::string& text = value.asString();
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc{} || end != text.data() + text.size() || text.empty())
    throw ConfigError{path, "is not a valid unsigned integer: '" + text + "'"};
}

JsonReader::JsonReader(const JsonValue& section, std::string path)
    : path_(std::move(path)) {
  if (!section.isObject()) throw ConfigError{path_, "must be a JSON object"};
  object_ = &section.asObject();
}

const JsonValue* JsonReader::take(std::string_view key) {
  const auto it = object_->find(key);
  if (it == object_->end()) return nullptr;
  taken_.push_back(&it->first);
  return &it->second;
}

std::string JsonReader::pathOf(std::string_view key) const {
  return path_.empty() ? std::string{key} : path_ + "." + std::string{key};
}

void JsonReader::finish() const {
  for (const auto& [key, value] : *object_)
    if (std::find(taken_.begin(), taken_.end(), &key) == taken_.end())
      throw ConfigError{pathOf(key), "is not a known key"};
}

void appendJsonString(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        // Print through unsigned char: char is signed here, so a negative
        // byte passed to %04x would sign-extend into an 8-digit escape.
        // Bytes >= 0x20 (including non-ASCII UTF-8 bytes) pass through
        // verbatim; the parser accepts them verbatim too, so dump -> parse
        // round-trips any byte content.
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void appendJsonNumber(std::string& out, double d) {
  if (std::isfinite(d) && d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[24];
    const auto end =
        std::to_chars(buf, buf + sizeof buf, static_cast<long long>(d)).ptr;
    out.append(buf, end);
    return;
  }
  appendGeneral(out, d, 17);
}

namespace {

void dumpValue(std::string& out, const JsonValue& value, int indent,
               int depth);

void newline(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

void dumpValue(std::string& out, const JsonValue& value, int indent,
               int depth) {
  if (value.isNull()) {
    out += "null";
  } else if (value.isBool()) {
    out += value.asBool() ? "true" : "false";
  } else if (value.isNumber()) {
    appendJsonNumber(out, value.asNumber());
  } else if (value.isString()) {
    appendJsonString(out, value.asString());
  } else if (value.isArray()) {
    const JsonArray& array = value.asArray();
    if (array.empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    bool first = true;
    for (const JsonValue& item : array) {
      if (!first) out.push_back(',');
      first = false;
      newline(out, indent, depth + 1);
      dumpValue(out, item, indent, depth + 1);
    }
    newline(out, indent, depth);
    out.push_back(']');
  } else {
    const JsonObject& object = value.asObject();
    if (object.empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    bool first = true;
    for (const auto& [key, item] : object) {
      if (!first) out.push_back(',');
      first = false;
      newline(out, indent, depth + 1);
      appendJsonString(out, key);
      out.push_back(':');
      if (indent > 0) out.push_back(' ');
      dumpValue(out, item, indent, depth + 1);
    }
    newline(out, indent, depth);
    out.push_back('}');
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parseDocument() {
    skipWhitespace();
    JsonValue value = parseValue();
    skipWhitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw JsonParseError{pos_, message};
  }

  [[nodiscard]] char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string{"expected '"} + c + "'");
    }
  }

  void skipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  bool consumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parseValue() {
    switch (peek()) {
      case '{': return parseObject();
      case '[': return parseArray();
      case '"': return JsonValue{parseString()};
      case 't':
        if (!consumeLiteral("true")) fail("invalid literal");
        return JsonValue{true};
      case 'f':
        if (!consumeLiteral("false")) fail("invalid literal");
        return JsonValue{false};
      case 'n':
        if (!consumeLiteral("null")) fail("invalid literal");
        return JsonValue{nullptr};
      default: return parseNumber();
    }
  }

  JsonValue parseObject() {
    expect('{');
    JsonObject object;
    skipWhitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue{std::move(object)};
    }
    for (;;) {
      skipWhitespace();
      std::string key = parseString();
      skipWhitespace();
      expect(':');
      skipWhitespace();
      object.insert_or_assign(std::move(key), parseValue());
      skipWhitespace();
      const char c = take();
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    return JsonValue{std::move(object)};
  }

  JsonValue parseArray() {
    expect('[');
    JsonArray array;
    skipWhitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue{std::move(array)};
    }
    for (;;) {
      skipWhitespace();
      array.push_back(parseValue());
      skipWhitespace();
      const char c = take();
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
    return JsonValue{std::move(array)};
  }

  std::string parseString() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': appendUnicodeEscape(out); break;
        default: --pos_; fail("invalid escape sequence");
      }
    }
  }

  void appendUnicodeEscape(std::string& out) {
    const unsigned code = parseHex4();
    // Encode the BMP code point as UTF-8 (surrogate pairs are rare in
    // config files; a lone surrogate is rejected).
    if (code >= 0xD800 && code <= 0xDFFF) {
      if (code >= 0xDC00) fail("unexpected low surrogate");
      if (take() != '\\' || take() != 'u') fail("expected low surrogate");
      const unsigned low = parseHex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
      const unsigned cp =
          0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
      return;
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
  }

  unsigned parseHex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      value <<= 4;
      if (c >= '0' && c <= '9')
        value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        value |= static_cast<unsigned>(c - 'A' + 10);
      else {
        --pos_;
        fail("invalid \\u escape");
      }
    }
    return value;
  }

  JsonValue parseNumber() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [this] {
      std::size_t n = 0;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;  // leading zero must stand alone
    } else if (digits() == 0) {
      pos_ = start;
      fail("invalid number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (digits() == 0) fail("digits required in exponent");
    }
    double value = 0.0;
    const auto result = std::from_chars(text_.data() + start,
                                        text_.data() + pos_, value);
    if (result.ec != std::errc{}) fail("number out of range");
    return JsonValue{value};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string JsonValue::dump(int indent) const {
  std::string out;
  dumpValue(out, *this, indent, 0);
  return out;
}

JsonParseError::JsonParseError(std::size_t offset, const std::string& message)
    : std::runtime_error{"JSON parse error at offset " +
                         std::to_string(offset) + ": " + message},
      offset_(offset) {}

JsonValue parseJson(std::string_view text) {
  return Parser{text}.parseDocument();
}

JsonValue parseJsonFile(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"cannot open JSON file: " + path};
  const std::string content{std::istreambuf_iterator<char>{in},
                            std::istreambuf_iterator<char>{}};
  return parseJson(content);
}

}  // namespace dike::util
