// Schema-checked binary archive for run checkpoints.
//
// Every value is written as a (tag, field-name, payload) record and values
// are grouped into named sections, so a reader that expects a different
// field than the writer produced fails immediately with both names and the
// byte offset — a schema check paid once per field, not a silent
// misinterpretation of the byte stream. The same self-description powers
// tools/dike_diff: tokenize() re-parses a payload into a flat token stream
// whose paths ("machine/thread 3/executed") localise the first diverging
// byte to a named quantity.
//
// Encoding rules (all integers little-endian, fixed width):
//   * doubles are stored as their raw IEEE-754 bit pattern (bit-exact
//     round-trip; NaN payloads preserved),
//   * strings and names are u32 length + bytes,
//   * vectors are u32 count + packed payloads.
// The container format around a payload (magic, version, checksum) lives in
// ckpt/checkpoint.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dike::ckpt {

/// Every checkpoint failure — truncation, corruption, schema or version
/// mismatch — throws this; the message carries the offset and field context.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Record type tags. Values are part of the on-disk format — append only.
enum class Tag : std::uint8_t {
  U64 = 1,
  I64 = 2,
  F64 = 3,
  Bool = 4,
  Str = 5,
  VecF64 = 6,
  VecI64 = 7,
  SectionBegin = 8,
  SectionEnd = 9,
};

[[nodiscard]] std::string_view toString(Tag tag) noexcept;

/// Serializer. Field order is the schema: the reader must consume the same
/// fields in the same order, which the per-field name check enforces.
///
/// Each record is claimed whole (one bounds check) and written through a
/// raw cursor. Three modes share that one path, so the code that saves a
/// payload is also the code that sizes it:
///   * default-constructed: the buffer grows on demand;
///   * counting(): adds up each record's encoded size and stores nothing;
///   * sized(n): allocates exactly n bytes once. A record that would run
///     past n throws, and take() throws unless exactly n bytes were written.
class BinWriter {
 public:
  BinWriter() = default;
  [[nodiscard]] static BinWriter counting() {
    return BinWriter{Mode::Counting};
  }
  [[nodiscard]] static BinWriter sized(std::size_t bytes);

  void u64(std::string_view name, std::uint64_t v);
  void i64(std::string_view name, std::int64_t v);
  void f64(std::string_view name, double v);
  void boolean(std::string_view name, bool v);
  void str(std::string_view name, std::string_view v);
  /// One vec<f64> record holding `first` then `second`: a ring buffer's two
  /// contiguous runs are written without joining them first.
  void vecF64(std::string_view name, std::span<const double> first,
              std::span<const double> second = {});
  void vecI64(std::string_view name, std::span<const std::int64_t> v);
  /// Convenience: widen a vector<int> (placement maps, live-thread lists).
  void vecInt(std::string_view name, std::span<const int> v);

  void beginSection(std::string_view name);
  void endSection();

  /// Finish and take the payload. Throws if a section is still open, or if
  /// a sized writer got fewer bytes than it was sized for. A counting
  /// writer yields an empty string.
  [[nodiscard]] std::string take();
  /// Bytes written so far; for a counting writer, the bytes it would have
  /// written.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  enum class Mode : std::uint8_t { Growing, Counting, Sized };
  explicit BinWriter(Mode mode) : mode_(mode) {}

  /// Claim one record of `valueBytes` value bytes, write its tag and name,
  /// and return the cursor for the value (nullptr when counting).
  [[nodiscard]] char* record(Tag tag, std::string_view name,
                             std::size_t valueBytes);

  Mode mode_ = Mode::Growing;
  std::string buf_;
  std::size_t size_ = 0;  ///< bytes written (or counted); buf_ may be longer
  /// Open section names, concatenated, for the section-end records and
  /// error messages; openStarts_ holds where each one begins.
  std::string openNames_;
  std::vector<std::size_t> openStarts_;
};

struct TokenStream;

/// Deserializer over a payload produced by BinWriter. Every accessor
/// verifies the tag and field name before touching the value; every read is
/// bounds-checked, so a truncated payload throws instead of reading past
/// the end — a failed read never yields a value. The reader keeps the path
/// of its open sections, so every error names the field it was reading
/// ("observer/info[3]/class").
class BinReader {
 public:
  explicit BinReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint64_t u64(std::string_view name);
  [[nodiscard]] std::int64_t i64(std::string_view name);
  [[nodiscard]] double f64(std::string_view name);
  [[nodiscard]] bool boolean(std::string_view name);
  [[nodiscard]] std::string str(std::string_view name);
  [[nodiscard]] std::vector<double> vecF64(std::string_view name);
  [[nodiscard]] std::vector<std::int64_t> vecI64(std::string_view name);
  /// Narrowing counterpart of BinWriter::vecInt; range-checks every element.
  [[nodiscard]] std::vector<int> vecInt(std::string_view name);

  void beginSection(std::string_view name);
  /// A repeated section: the payload names it `name`, the error path
  /// `name[index]`.
  void beginSection(std::string_view name, std::size_t index);
  void endSection();

  [[nodiscard]] bool atEnd() const noexcept { return pos_ >= bytes_.size(); }
  /// Throws when payload bytes remain unconsumed (schema drift guard).
  void expectEnd() const;
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }

  /// The path of `field` under the open sections ("observer/info[3]/class").
  [[nodiscard]] std::string path(std::string_view field) const;
  /// Throw CheckpointError "checkpoint field '<path of field>' <what>".
  [[noreturn]] void fail(std::string_view field, std::string_view what) const;

 private:
  friend TokenStream tokenize(std::string_view bytes);

  void expectHeader(Tag tag, std::string_view name);
  [[nodiscard]] std::uint32_t raw32(std::string_view what);
  [[nodiscard]] std::uint64_t raw64(std::string_view what);
  /// A vector record's element count, refused when the remaining bytes
  /// cannot hold that many elements (so nothing is reserved for it).
  [[nodiscard]] std::uint32_t vectorCount(std::string_view name);
  template <class T>
  [[nodiscard]] std::vector<T> packed(Tag tag, std::string_view name);
  [[nodiscard]] std::string_view rawBytes(std::size_t n, std::string_view what);

  std::string_view bytes_;
  std::size_t pos_ = 0;
  /// Open section names joined by '/', and where each one starts.
  std::string path_;
  std::vector<std::size_t> pathStarts_;
};

/// One record of a payload, re-parsed for differential comparison. A token
/// is a view: `name` and `bits` point into the payload, which must outlive
/// it, and `section` indexes its TokenStream's section paths, so the
/// record's path is that section path followed by `name`. `bits` is the raw
/// value (bit pattern for scalars, bytes for strings/vectors) so two tokens
/// compare exactly; the printable rendering is made on demand, by value().
struct Token {
  std::size_t section = 0;
  std::string_view name;
  Tag tag = Tag::U64;
  std::string_view bits;
  std::size_t offset = 0;

  /// The value rendered as text: integers in decimal, doubles to 17
  /// significant digits, strings quoted with non-printable bytes escaped,
  /// vectors as "[a, b]".
  [[nodiscard]] std::string value() const;
};

/// A payload's records in order, and the paths of the sections they sit
/// in. The tokens are views into the payload, which must outlive them.
struct TokenStream {
  /// Every opened section's path, its names joined and ended by '/'
  /// ("machine/thread 3/"), stored end to end: section i's path spans
  /// [sectionBounds[i], sectionBounds[i + 1]). Section 0 is the top level,
  /// "".
  std::string sectionPaths;
  std::vector<std::size_t> sectionBounds;
  std::vector<Token> tokens;

  /// The path of section `i`.
  [[nodiscard]] std::string_view sectionPath(std::size_t i) const;
  /// The record's path: section names and field name joined by '/'.
  [[nodiscard]] std::string path(const Token& t) const;
  /// True when the record's path is `path`, without building it.
  [[nodiscard]] bool hasPath(const Token& t, std::string_view path) const;

  [[nodiscard]] std::size_t size() const noexcept { return tokens.size(); }
  [[nodiscard]] const Token& operator[](std::size_t i) const {
    return tokens[i];
  }
  [[nodiscard]] auto begin() const noexcept { return tokens.begin(); }
  [[nodiscard]] auto end() const noexcept { return tokens.end(); }
};

/// Flatten a payload into its token stream. Throws CheckpointError on a
/// malformed payload.
[[nodiscard]] TokenStream tokenize(std::string_view bytes);

/// True when two records have the same path.
[[nodiscard]] bool samePath(const TokenStream& a, const Token& ta,
                            const TokenStream& b, const Token& tb);
/// True when two records have the same path, tag and value bits.
[[nodiscard]] bool sameRecord(const TokenStream& a, const Token& ta,
                              const TokenStream& b, const Token& tb);

/// "path: valueA vs valueB" for two records at the same path.
[[nodiscard]] std::string describeDivergence(std::string_view path,
                                             const Token& a, const Token& b);

/// Compare two payloads token by token. Returns nullopt when they are
/// identical, else a one-line description of the first diverging quantity
/// (its path plus both rendered values).
[[nodiscard]] std::optional<std::string> firstDivergence(
    std::string_view payloadA, std::string_view payloadB);

}  // namespace dike::ckpt
