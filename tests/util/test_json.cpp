#include "util/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "util/number_text.hpp"
#include "util/rng.hpp"

namespace dike::util {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parseJson("null").isNull());
  EXPECT_EQ(parseJson("true").asBool(), true);
  EXPECT_EQ(parseJson("false").asBool(), false);
  EXPECT_DOUBLE_EQ(parseJson("42").asNumber(), 42.0);
  EXPECT_DOUBLE_EQ(parseJson("-3.5").asNumber(), -3.5);
  EXPECT_DOUBLE_EQ(parseJson("1e3").asNumber(), 1000.0);
  EXPECT_DOUBLE_EQ(parseJson("2.5E-2").asNumber(), 0.025);
  EXPECT_DOUBLE_EQ(parseJson("0").asNumber(), 0.0);
  EXPECT_EQ(parseJson("\"hi\"").asString(), "hi");
}

TEST(Json, ParsesContainers) {
  const JsonValue v = parseJson(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_TRUE(v.isObject());
  // Copy: get() returns by value, so references through it would dangle.
  const JsonArray a = v.get("a")->asArray();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[0].asNumber(), 1.0);
  EXPECT_TRUE(a[2].get("b")->asBool());
  EXPECT_EQ(v.stringOr("c", ""), "x");
}

TEST(Json, WhitespaceTolerant) {
  EXPECT_NO_THROW(parseJson(" \n\t{ \"a\" : [ ] , \"b\" : { } } \r\n"));
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parseJson(R"("a\"b\\c\/d\n\t")").asString(), "a\"b\\c/d\n\t");
  EXPECT_EQ(parseJson(R"("A")").asString(), "A");
  EXPECT_EQ(parseJson(R"("é")").asString(), "\xC3\xA9");     // é
  EXPECT_EQ(parseJson(R"("€")").asString(), "\xE2\x82\xAC"); // €
  EXPECT_EQ(parseJson(R"("😀")").asString(),
            "\xF0\x9F\x98\x80");  // emoji via surrogate pair
}

TEST(Json, RejectsMalformed) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "01", "1.", "1e", "tru", "\"\\x\"",
        "\"unterminated", "{\"a\":1,}", "[1 2]", "nullx", "\"\\ud800\"",
        "{\"a\":1} extra"}) {
    EXPECT_THROW({ [[maybe_unused]] auto v = parseJson(bad); },
                 JsonParseError)
        << bad;
  }
}

TEST(Json, ErrorCarriesOffset) {
  try {
    [[maybe_unused]] auto v = parseJson("[1, x]");
    FAIL();
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.offset(), 4u);
  }
}

TEST(Json, ConvenienceLookups) {
  const JsonValue v = parseJson(R"({"n": 2.5, "i": 7, "b": true, "s": "x"})");
  EXPECT_DOUBLE_EQ(v.numberOr("n", 0.0), 2.5);
  EXPECT_EQ(v.intOr("i", 0), 7);
  EXPECT_TRUE(v.boolOr("b", false));
  EXPECT_EQ(v.stringOr("s", ""), "x");
  // Missing keys and wrong types fall back.
  EXPECT_DOUBLE_EQ(v.numberOr("missing", -1.0), -1.0);
  EXPECT_EQ(v.intOr("s", 9), 9);
  EXPECT_FALSE(v.boolOr("n", false));
  EXPECT_EQ(parseJson("[1]").stringOr("a", "fb"), "fb");
}

TEST(Json, DumpCompactRoundTrips) {
  const char* docs[] = {
      R"({"a":[1,2,3],"b":{"c":"x"},"d":null,"e":true,"f":-2.5})",
      "[]", "{}", "[[[]]]", R"(["\n\"\\"])",
  };
  for (const char* doc : docs) {
    const JsonValue v = parseJson(doc);
    EXPECT_EQ(parseJson(v.dump()), v) << doc;
  }
}

TEST(Json, DumpIsDeterministicAndSorted) {
  const JsonValue v = parseJson(R"({"b":1,"a":2})");
  EXPECT_EQ(v.dump(), R"({"a":2,"b":1})");
}

TEST(Json, DumpPrettyPrints) {
  const JsonValue v = parseJson(R"({"a":[1]})");
  EXPECT_EQ(v.dump(2), "{\n  \"a\": [\n    1\n  ]\n}");
}

TEST(Json, DumpIntegersWithoutExponent) {
  EXPECT_EQ(JsonValue{42}.dump(), "42");
  EXPECT_EQ(JsonValue{-1.0}.dump(), "-1");
  EXPECT_EQ(parseJson("0.5").dump(), "0.5");
}

TEST(Json, DumpEscapesControlCharacters) {
  EXPECT_EQ(JsonValue{std::string{"a\x01"}}.dump(), "\"a\\u0001\"");
}

TEST(Json, TypeMismatchThrows) {
  const JsonValue v = parseJson("3");
  EXPECT_THROW({ [[maybe_unused]] auto b = v.asBool(); }, std::runtime_error);
  EXPECT_THROW({ [[maybe_unused]] auto& s = v.asString(); },
               std::runtime_error);
  EXPECT_THROW({ [[maybe_unused]] auto& a = v.asArray(); },
               std::runtime_error);
  EXPECT_THROW({ [[maybe_unused]] auto& o = v.asObject(); },
               std::runtime_error);
}

// The strict reader's integer bounds are the target type's exact range.
TEST(JsonReader, IntegersMustBeWholeAndInRange) {
  const auto decodeInt = [](const char* text) {
    int out = 0;
    decodeValue(parseJson(text), "k", out);
    return out;
  };
  EXPECT_EQ(decodeInt("2147483647"), 2147483647);
  EXPECT_EQ(decodeInt("-2147483648"), std::numeric_limits<int>::min());
  EXPECT_EQ(decodeInt("-0"), 0);
  for (const char* bad : {"2147483648", "-2147483649", "2.5", "1e300", "\"2\"",
                          "true", "null"})
    EXPECT_THROW(decodeInt(bad), ConfigError) << bad;

  std::int64_t tick = 0;
  decodeValue(parseJson("-9223372036854775808"), "k", tick);
  EXPECT_EQ(tick, std::numeric_limits<std::int64_t>::min());
  EXPECT_THROW(decodeValue(parseJson("9223372036854775808"), "k", tick),
               ConfigError);

  std::uint64_t u = 0;
  decodeValue(parseJson("\"18446744073709551615\""), "k", u);
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  decodeValue(parseJson("42"), "k", u);
  EXPECT_EQ(u, 42u);
  for (const char* bad : {"-1", "18446744073709551616", "\"-1\"", "\"12x\"",
                          "\"\""})
    EXPECT_THROW(decodeValue(parseJson(bad), "k", u), ConfigError) << bad;
}

TEST(JsonReader, UnreadKeysAndBadSectionsNameTheirPath) {
  const JsonValue doc = parseJson(R"({"a": 1, "inner": {"b": true, "c": 2}})");
  JsonReader r{doc, "root"};
  int a = 0;
  EXPECT_TRUE(r.read("a", a));
  EXPECT_FALSE(r.read("missing", a));
  EXPECT_EQ(a, 1);
  try {
    r.readObject("inner", [](JsonReader& inner) {
      bool b = false;
      inner.read("b", b);
    });
    ADD_FAILURE() << "unread key 'c' accepted";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "'root.inner.c' is not a known key");
  }
  r.finish();  // "inner" was taken, so the root has nothing unread

  const JsonValue array = parseJson("[1]");
  try {
    JsonReader entry{array, ""};
    ADD_FAILURE() << "array accepted as a section";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "document must be a JSON object");
  }
}

TEST(Json, ParseFileMissingThrows) {
  EXPECT_THROW({ [[maybe_unused]] auto v = parseJsonFile("/no/such.json"); },
               std::runtime_error);
}

// Strings must survive dump -> parse byte for byte, whatever bytes they
// hold: quotes, backslashes, every control character (escaped as \uXXXX
// or the short forms), DEL, and non-ASCII / invalid-UTF-8 bytes (passed
// through verbatim). Embedded NUL included — std::string carries it.
TEST(Json, StringRoundTripExhaustiveBytes) {
  std::string all;
  for (int b = 0; b < 256; ++b) all.push_back(static_cast<char>(b));
  const JsonValue v{all};
  const JsonValue back = parseJson(v.dump());
  EXPECT_EQ(back.asString(), all);
}

TEST(Json, ControlCharactersEscapeToUnicode) {
  const std::string dumped = JsonValue{std::string{"\x01\x1f"}}.dump();
  EXPECT_EQ(dumped, "\"\\u0001\\u001f\"");
  EXPECT_EQ(parseJson(dumped).asString(), std::string{"\x01\x1f"});
}

// High bytes are passed through, never sign-extended into 8-digit \u
// escapes (char is signed on this target).
TEST(Json, HighBytesPassThroughUnescaped) {
  const std::string bytes{"\xc3\xa9\xff"};  // UTF-8 é plus a lone 0xFF
  const std::string dumped = JsonValue{bytes}.dump();
  EXPECT_EQ(dumped, "\"" + bytes + "\"");
  EXPECT_EQ(parseJson(dumped).asString(), bytes);
}

// Fuzz-ish: random byte strings (biased toward quotes, backslashes, and
// control bytes) must round-trip exactly. Deterministic seed, so a
// failure reproduces.
TEST(Json, StringRoundTripFuzz) {
  Rng rng{0xD1CE};
  std::string alphabet =
      "\"\\\b\f\n\r\t\x01\x1f\x7f\x80\xc3\xa9\xff aZ09{}[]:,";
  alphabet.push_back('\0');
  for (int iteration = 0; iteration < 500; ++iteration) {
    std::string s;
    const std::uint64_t length = rng.below(64);
    for (std::uint64_t i = 0; i < length; ++i) {
      if (rng.below(2) == 0)
        s.push_back(alphabet[rng.below(alphabet.size())]);
      else
        s.push_back(static_cast<char>(rng.below(256)));
    }
    const JsonValue back = parseJson(JsonValue{s}.dump());
    ASSERT_EQ(back.asString(), s) << "iteration " << iteration;
  }
}

// Round-trip through nested structure too: object keys are strings with
// the same escaping rules.
TEST(Json, ObjectKeyEscapingRoundTrip) {
  JsonObject o;
  o[std::string{"quote\" slash\\ tab\t"}] = 1;
  o[std::string{"newline\n"}] = 2;
  const JsonValue back = parseJson(JsonValue{o}.dump(2));
  EXPECT_EQ(back.asObject().size(), 2u);
  EXPECT_DOUBLE_EQ(back.numberOr("quote\" slash\\ tab\t", 0.0), 1.0);
  EXPECT_DOUBLE_EQ(back.numberOr("newline\n", 0.0), 2.0);
}

TEST(Json, ParseFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/dike_json_test.json";
  {
    std::ofstream out{path};
    out << R"({"workloads": [1, 2], "scale": 0.5})";
  }
  const JsonValue v = parseJsonFile(path);
  EXPECT_DOUBLE_EQ(v.numberOr("scale", 0.0), 0.5);
  EXPECT_EQ(v.get("workloads")->asArray().size(), 2u);
}

// ---------------------------------------------------------- number text

// The number text the library wrote before it moved to std::to_chars,
// kept here as the reference the fast path must reproduce byte for byte.
std::string printfGeneral(double d, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", precision, d);
  return buf;
}

std::string printfJsonNumber(double d) {
  if (std::isfinite(d) && d == std::floor(d) && std::abs(d) < 1e15)
    return std::to_string(static_cast<long long>(d));
  return printfGeneral(d, 17);
}

/// The edge cases named in the number contract, then `randomCount` seeded
/// doubles drawn four ways: raw bit patterns (every exponent, subnormals,
/// NaN payloads), decimal magnitudes 1e-30..1e30, integers up to 2^54
/// (both sides of the 1e15 integer cutoff), and short decimals of the kind
/// the simulator's rates and ratios print as.
std::vector<double> numberSamples(std::size_t randomCount) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> v{0.0,
                        -0.0,
                        inf,
                        -inf,
                        nan,
                        -nan,
                        std::numeric_limits<double>::denorm_min(),
                        -std::numeric_limits<double>::denorm_min(),
                        std::numeric_limits<double>::min(),
                        std::numeric_limits<double>::max(),
                        std::numeric_limits<double>::lowest(),
                        9007199254740992.0,  // 2^53
                        1e15,
                        std::nextafter(1e15, 0.0),
                        std::nextafter(1e15, inf),
                        -1e15,
                        std::nextafter(-1e15, 0.0),
                        std::nextafter(-1e15, -inf),
                        0.1,
                        1.0 / 3.0,
                        -0.0667};
  Rng rng{0x5EED'0F'7E47ULL};
  for (std::size_t i = 0; i < randomCount; ++i) {
    const double sign = rng.below(2) == 0 ? 1.0 : -1.0;
    switch (i % 4) {
      case 0: v.push_back(std::bit_cast<double>(rng())); break;
      case 1:
        v.push_back(sign * rng.uniform(1.0, 10.0) *
                    std::pow(10.0, static_cast<double>(rng.below(61)) - 30));
        break;
      case 2:
        v.push_back(sign * static_cast<double>(rng.below(1ULL << 54)));
        break;
      default: {
        const double scale = std::pow(10.0, static_cast<double>(rng.below(8)));
        v.push_back(sign * std::round(rng.uniform(0.0, 1e7) * scale) / scale);
      }
    }
  }
  return v;
}

/// Bit pattern of `d` for failure messages: NaNs and -0.0 print ambiguously.
std::string bitsOf(double d) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(d)));
  return buf;
}

TEST(Json, NumberTextMatchesPrintfReference) {
  std::size_t mismatches = 0;
  std::string first;
  std::string text;
  for (const double d : numberSamples(1'000'000)) {
    text.clear();
    appendJsonNumber(text, d);
    const std::string want = printfJsonNumber(d);
    if (text != want && mismatches++ == 0)
      first = bitsOf(d) + ": got " + text + ", want " + want;
  }
  EXPECT_EQ(mismatches, 0u) << "first mismatch " << first;
}

TEST(NumberText, GeneralMatchesPrintfAtPrecisions6And12) {
  for (const int precision : {6, 12}) {
    std::size_t mismatches = 0;
    std::string first;
    std::string text;
    for (const double d : numberSamples(1'000'000)) {
      text.clear();
      appendGeneral(text, d, precision);
      const std::string want = printfGeneral(d, precision);
      if (text != want && mismatches++ == 0)
        first = bitsOf(d) + ": got " + text + ", want " + want;
    }
    EXPECT_EQ(mismatches, 0u)
        << "precision " << precision << ", first mismatch " << first;
  }
}

}  // namespace
}  // namespace dike::util
