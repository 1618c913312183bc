#include "ckpt/archive.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"

namespace dike::ckpt {
namespace {

TEST(BinArchive, ScalarRoundTrip) {
  BinWriter w;
  w.u64("u", 0xFFFFFFFFFFFFFFFFULL);
  w.i64("i", -42);
  w.f64("f", 0.1);
  w.boolean("b", true);
  w.str("s", "hello\0world");  // literal truncates at NUL; still a string
  const std::string payload = w.take();

  BinReader r{payload};
  EXPECT_EQ(r.u64("u"), 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_EQ(r.i64("i"), -42);
  EXPECT_DOUBLE_EQ(r.f64("f"), 0.1);
  EXPECT_TRUE(r.boolean("b"));
  EXPECT_EQ(r.str("s"), "hello");
  r.expectEnd();
}

TEST(BinArchive, DoubleBitPatternsSurvive) {
  const double values[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min(),
                           1.0 / 3.0};
  BinWriter w;
  w.vecF64("v", values);
  const std::string payload = w.take();
  BinReader r{payload};
  const std::vector<double> back = r.vecF64("v");
  ASSERT_EQ(back.size(), std::size(values));
  for (std::size_t i = 0; i < back.size(); ++i) {
    std::uint64_t a = 0, b = 0;
    std::memcpy(&a, &values[i], sizeof a);
    std::memcpy(&b, &back[i], sizeof b);
    EXPECT_EQ(a, b) << "index " << i;
  }
}

TEST(BinArchive, SectionsAndVectors) {
  BinWriter w;
  w.beginSection("outer");
  const std::vector<std::int64_t> ids{-1, 0, 7};
  const std::vector<int> cores{3, 1, 2};
  w.vecI64("ids", ids);
  w.vecInt("cores", cores);
  w.beginSection("inner");
  w.u64("n", 9);
  w.endSection();
  w.endSection();
  const std::string payload = w.take();

  BinReader r{payload};
  r.beginSection("outer");
  EXPECT_EQ(r.vecI64("ids"), ids);
  EXPECT_EQ(r.vecInt("cores"), cores);
  r.beginSection("inner");
  EXPECT_EQ(r.u64("n"), 9u);
  r.endSection();
  r.endSection();
  r.expectEnd();
}

TEST(BinArchive, WrongFieldNameThrowsWithBothNames) {
  BinWriter w;
  w.u64("expected", 1);
  const std::string payload = w.take();
  BinReader r{payload};
  try {
    (void)r.u64("other");
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("expected"), std::string::npos) << what;
    EXPECT_NE(what.find("other"), std::string::npos) << what;
  }
}

TEST(BinArchive, WrongTagThrows) {
  BinWriter w;
  w.u64("x", 1);
  const std::string payload = w.take();
  BinReader r{payload};
  EXPECT_THROW((void)r.f64("x"), CheckpointError);
}

TEST(BinArchive, TruncatedPayloadThrowsNotReads) {
  BinWriter w;
  w.str("s", "0123456789");
  const std::string payload = w.take();
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    BinReader r{std::string_view{payload}.substr(0, cut)};
    EXPECT_THROW((void)r.str("s"), CheckpointError) << "cut at " << cut;
  }
}

TEST(BinArchive, UnbalancedSectionThrowsOnTake) {
  BinWriter w;
  w.beginSection("open");
  EXPECT_THROW((void)w.take(), CheckpointError);
}

TEST(BinArchive, ExpectEndThrowsOnTrailingBytes) {
  BinWriter w;
  w.u64("a", 1);
  w.u64("b", 2);
  const std::string payload = w.take();
  BinReader r{payload};
  EXPECT_EQ(r.u64("a"), 1u);
  EXPECT_THROW(r.expectEnd(), CheckpointError);
}

TEST(BinArchive, TokenizePathsJoinSections) {
  BinWriter w;
  w.beginSection("machine");
  w.i64("now", 5);
  w.beginSection("thread 3");
  w.f64("executed", 2.5);
  w.endSection();
  w.endSection();
  const std::vector<Token> tokens = tokenize(w.take());
  ASSERT_GE(tokens.size(), 2u);
  bool sawNow = false, sawExecuted = false;
  for (const Token& t : tokens) {
    if (t.path == "machine/now") sawNow = true;
    if (t.path == "machine/thread 3/executed") sawExecuted = true;
  }
  EXPECT_TRUE(sawNow);
  EXPECT_TRUE(sawExecuted);
}

TEST(BinArchive, TokensCompareByBitsNotRendering) {
  BinWriter a, b;
  a.f64("x", 0.0);
  b.f64("x", -0.0);  // renders similarly, different bit pattern
  const std::vector<Token> ta = tokenize(a.take());
  const std::vector<Token> tb = tokenize(b.take());
  ASSERT_EQ(ta.size(), 1u);
  ASSERT_EQ(tb.size(), 1u);
  EXPECT_FALSE(ta[0] == tb[0]);
}

// The divergence message renders exactly the two diverging values: the
// text per record kind is pinned here.
TEST(BinArchive, DivergenceMessageRendersTheDivergingValues) {
  const auto divergence = [](const std::function<void(BinWriter&)>& a,
                             const std::function<void(BinWriter&)>& b) {
    BinWriter wa, wb;
    for (BinWriter* w : {&wa, &wb}) {
      w->beginSection("run");
      w->f64("same", 0.5);
      w->vecF64("sameVec", std::vector<double>{1.0, 2.0});
    }
    a(wa);
    b(wb);
    wa.endSection();
    wb.endSection();
    return firstDivergence(wa.take(), wb.take()).value_or("identical");
  };
  EXPECT_EQ(divergence([](BinWriter& w) { w.u64("u", 7); },
                       [](BinWriter& w) { w.u64("u", 18446744073709551615u); }),
            "run/u: 7 vs 18446744073709551615");
  EXPECT_EQ(divergence([](BinWriter& w) { w.i64("i", -5); },
                       [](BinWriter& w) { w.i64("i", 12); }),
            "run/i: -5 vs 12");
  EXPECT_EQ(divergence([](BinWriter& w) { w.f64("f", 0.1); },
                       [](BinWriter& w) { w.f64("f", 1.0 / 3.0); }),
            "run/f: 0.10000000000000001 vs 0.33333333333333331");
  EXPECT_EQ(divergence([](BinWriter& w) { w.f64("f", 0.0); },
                       [](BinWriter& w) { w.f64("f", -0.0); }),
            "run/f: 0 vs -0");
  EXPECT_EQ(divergence([](BinWriter& w) { w.boolean("b", true); },
                       [](BinWriter& w) { w.boolean("b", false); }),
            "run/b: true vs false");
  EXPECT_EQ(divergence([](BinWriter& w) { w.str("s", "ab\x01"); },
                       [](BinWriter& w) { w.str("s", "ab"); }),
            "run/s: \"ab\\x01\" vs \"ab\"");
  EXPECT_EQ(divergence(
                [](BinWriter& w) {
                  w.vecF64("v", std::vector<double>{1.5, 2.0});
                },
                [](BinWriter& w) {
                  w.vecF64("v", std::vector<double>{1.5, 2.0, 1e300});
                }),
            "run/v: [1.5, 2] vs [1.5, 2, 1.0000000000000001e+300]");
  EXPECT_EQ(divergence(
                [](BinWriter& w) { w.vecI64("w", {}); },
                [](BinWriter& w) {
                  w.vecI64("w", std::vector<std::int64_t>{-1, 3});
                }),
            "run/w: [] vs [-1, 3]");
  EXPECT_EQ(divergence([](BinWriter& w) { w.u64("x", 1); },
                       [](BinWriter& w) { w.u64("y", 1); }),
            "structure diverges at record 2: 'run/x' vs 'run/y'");
}

// --- writer modes and size accounting --------------------------------------

/// Run `save` through a counting writer, a writer sized to that count and a
/// default (growing) writer: the count must equal both writers' sizes and
/// both payloads must be the same bytes. Returns the payload.
template <typename Save>
std::string checkedAcrossModes(const Save& save) {
  BinWriter counter = BinWriter::counting();
  save(counter);
  BinWriter sized = BinWriter::sized(counter.size());
  save(sized);
  BinWriter growing;
  save(growing);
  const std::size_t counted = counter.size();
  EXPECT_EQ(sized.size(), counted);
  EXPECT_EQ(growing.size(), counted);
  EXPECT_EQ(counter.take(), "");
  const std::string exact = sized.take();
  EXPECT_EQ(exact.size(), counted);
  EXPECT_EQ(growing.take(), exact);
  return exact;
}

TEST(BinWriterModes, EveryRecordKindCountsItsExactSize) {
  const std::string longName(300, 'n');  // name length > 255
  const std::vector<double> doubles{1.5, -0.0, 1e300};
  const std::vector<double> none;
  const std::vector<std::int64_t> wide{-1, 0, INT64_MAX};
  const std::vector<int> narrow{-7, 0, 42};
  const std::vector<std::function<void(BinWriter&)>> cases{
      [](BinWriter& w) { w.u64("u", 0xFFFFFFFFFFFFFFFFULL); },
      [](BinWriter& w) { w.i64("i", -42); },
      [](BinWriter& w) {
        w.f64("f", std::numeric_limits<double>::quiet_NaN());
      },
      [](BinWriter& w) { w.boolean("t", true); },
      [](BinWriter& w) { w.boolean("f", false); },
      [](BinWriter& w) { w.str("s", "hello"); },
      [](BinWriter& w) { w.str("empty", ""); },
      [&](BinWriter& w) { w.vecF64("v", doubles); },
      [&](BinWriter& w) { w.vecF64("v", none); },
      [&](BinWriter& w) { w.vecF64("v", doubles, doubles); },
      [&](BinWriter& w) { w.vecF64("v", none, doubles); },
      [&](BinWriter& w) { w.vecI64("v", wide); },
      [](BinWriter& w) { w.vecI64("v", {}); },
      [&](BinWriter& w) { w.vecInt("v", narrow); },
      [](BinWriter& w) { w.vecInt("v", {}); },
      [](BinWriter& w) { w.u64("", 1); },
      [&](BinWriter& w) { w.f64(longName, 2.0); },
      [&](BinWriter& w) {
        w.beginSection("outer");
        w.beginSection("");
        w.beginSection(longName);
        w.i64("x", 1);
        w.endSection();
        w.endSection();
        w.endSection();
      },
      [](BinWriter& w) {  // grows past the default writer's first buffer
        const std::vector<double> big(1000, 0.25);
        for (int i = 0; i < 5; ++i) w.vecF64("big", big);
      },
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    (void)checkedAcrossModes(cases[i]);
  }
}

TEST(BinWriterModes, EncodingIsLittleEndianTagNameValue) {
  const std::string bytes = checkedAcrossModes(
      [](BinWriter& w) { w.u64("ab", 0x0102030405060708ULL); });
  const std::string expected{
      "\x01"              // Tag::U64
      "\x02\0\0\0" "ab"  // name length + name
      "\x08\x07\x06\x05\x04\x03\x02\x01",
      1 + 4 + 2 + 8};
  EXPECT_EQ(bytes, expected);
}

TEST(BinWriterModes, TwoRunVectorEqualsTheJoinedVector) {
  const std::vector<double> head{1.0, 2.0};
  const std::vector<double> tail{3.0};
  const std::vector<double> joined{1.0, 2.0, 3.0};
  const std::string split =
      checkedAcrossModes([&](BinWriter& w) { w.vecF64("v", head, tail); });
  EXPECT_EQ(split,
            checkedAcrossModes([&](BinWriter& w) { w.vecF64("v", joined); }));
}

TEST(BinWriterModes, SizedWriterRejectsMoreBytesThanCounted) {
  BinWriter counter = BinWriter::counting();
  counter.u64("a", 1);
  BinWriter sized = BinWriter::sized(counter.size());
  sized.u64("a", 1);
  EXPECT_THROW(sized.boolean("extra", true), CheckpointError);

  BinWriter tooSmall = BinWriter::sized(counter.size() - 1);
  EXPECT_THROW(tooSmall.u64("a", 1), CheckpointError);
}

TEST(BinWriterModes, SizedWriterRejectsFewerBytesThanCounted) {
  BinWriter counter = BinWriter::counting();
  counter.u64("a", 1);
  counter.u64("b", 2);
  BinWriter sized = BinWriter::sized(counter.size());
  sized.u64("a", 1);
  EXPECT_THROW((void)sized.take(), CheckpointError);

  BinWriter tooLarge = BinWriter::sized(counter.size() + 1);
  tooLarge.u64("a", 1);
  tooLarge.u64("b", 2);
  EXPECT_THROW((void)tooLarge.take(), CheckpointError);
}

TEST(BinWriterModes, UnbalancedSectionsThrowInEveryMode) {
  BinWriter counter = BinWriter::counting();
  counter.beginSection("outer");
  counter.beginSection("inner");
  counter.endSection();
  counter.endSection();
  for (BinWriter w :
       {BinWriter{}, BinWriter::counting(), BinWriter::sized(counter.size())}) {
    EXPECT_THROW(w.endSection(), CheckpointError);
    w.beginSection("outer");
    w.beginSection("inner");
    try {
      (void)w.take();
      FAIL() << "expected CheckpointError";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string{e.what()}.find("'inner'"), std::string::npos)
          << e.what();
    }
    w.endSection();
    try {
      (void)w.take();
      FAIL() << "expected CheckpointError";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string{e.what()}.find("'outer'"), std::string::npos)
          << e.what();
    }
  }
}

// --- container format -----------------------------------------------------

TEST(CheckpointContainer, EncodeDecodeRoundTrip) {
  const std::string payload = "arbitrary payload bytes \x01\x02";
  EXPECT_EQ(decodeCheckpoint(encodeCheckpoint(payload)), payload);
}

TEST(CheckpointContainer, WrongMagicFails) {
  std::string bytes = encodeCheckpoint("payload");
  bytes[0] = 'X';
  try {
    (void)decodeCheckpoint(bytes);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string{e.what()}.find("not a Dike checkpoint"),
              std::string::npos)
        << e.what();
  }
}

TEST(CheckpointContainer, UnsupportedVersionNamesBothVersions) {
  std::string bytes = encodeCheckpoint("payload");
  bytes[8] = static_cast<char>(kCheckpointVersion + 1);  // version word
  try {
    (void)decodeCheckpoint(bytes);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(kCheckpointVersion)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(std::to_string(kCheckpointVersion + 1)),
              std::string::npos)
        << what;
  }
}

TEST(CheckpointContainer, EveryTruncationFails) {
  const std::string bytes = encodeCheckpoint("some payload");
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(
        (void)decodeCheckpoint(std::string_view{bytes}.substr(0, cut)),
        CheckpointError)
        << "cut at " << cut;
  }
}

TEST(CheckpointContainer, TrailingGarbageFails) {
  EXPECT_THROW((void)decodeCheckpoint(encodeCheckpoint("p") + "x"),
               CheckpointError);
}

TEST(CheckpointContainer, EveryPayloadBitFlipFailsChecksum) {
  const std::string payload = "determinism matters";
  const std::string bytes = encodeCheckpoint(payload);
  const std::size_t headerSize = bytes.size() - payload.size();
  for (std::size_t i = headerSize; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    EXPECT_THROW((void)decodeCheckpoint(corrupt), CheckpointError)
        << "flip at byte " << i;
  }
}

TEST(CheckpointContainer, FileRoundTripAndMissingFile) {
  const std::string path = ::testing::TempDir() + "/dike_ckpt_test.ckpt";
  writeCheckpointFile(path, "file payload");
  EXPECT_EQ(readCheckpointFile(path), "file payload");
  // No half-written tmp file left behind.
  std::ifstream tmp{path + ".tmp"};
  EXPECT_FALSE(tmp.good());
  EXPECT_THROW((void)readCheckpointFile("/no/such/dir/x.ckpt"),
               CheckpointError);
}

TEST(CheckpointContainer, CorruptFileErrorNamesThePath) {
  const std::string path = ::testing::TempDir() + "/dike_ckpt_corrupt.ckpt";
  {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out << "DIKECKPT garbage that is not a valid container";
  }
  try {
    (void)readCheckpointFile(path);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string{e.what()}.find(path), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointContainer, EmptyFileFails) {
  const std::string path = ::testing::TempDir() + "/dike_ckpt_empty.ckpt";
  { std::ofstream out{path, std::ios::binary | std::ios::trunc}; }
  EXPECT_THROW((void)readCheckpointFile(path), CheckpointError);
}

}  // namespace
}  // namespace dike::ckpt
