#include "ckpt/archive.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <limits>

#include "util/number_text.hpp"

namespace dike::ckpt {

namespace {

constexpr std::size_t kMaxNameLength = 4096;

std::string printable(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (static_cast<unsigned char>(c) >= 0x20 &&
        static_cast<unsigned char>(c) < 0x7F) {
      out.push_back(c);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    }
  }
  return out;
}

std::string formatF64(double v) {
  std::string text;
  util::appendGeneral(text, v, 17);
  return text;
}

}  // namespace

std::string_view toString(Tag tag) noexcept {
  switch (tag) {
    case Tag::U64: return "u64";
    case Tag::I64: return "i64";
    case Tag::F64: return "f64";
    case Tag::Bool: return "bool";
    case Tag::Str: return "str";
    case Tag::VecF64: return "vec<f64>";
    case Tag::VecI64: return "vec<i64>";
    case Tag::SectionBegin: return "section-begin";
    case Tag::SectionEnd: return "section-end";
  }
  return "?";
}

// ---------------------------------------------------------------- BinWriter

namespace {

char* putBytes(char* p, const void* src, std::size_t n) noexcept {
  if (n != 0) std::memcpy(p, src, n);  // an empty span may have no data()
  return p + n;
}

char* put32(char* p, std::uint32_t v) noexcept {
  if constexpr (std::endian::native == std::endian::little)
    return putBytes(p, &v, 4);
  for (int i = 0; i < 4; ++i) *p++ = static_cast<char>((v >> (8 * i)) & 0xFF);
  return p;
}

char* put64(char* p, std::uint64_t v) noexcept {
  if constexpr (std::endian::native == std::endian::little)
    return putBytes(p, &v, 8);
  for (int i = 0; i < 8; ++i) *p++ = static_cast<char>((v >> (8 * i)) & 0xFF);
  return p;
}

/// Packed little-endian 8-byte elements: one block copy on a
/// little-endian host.
template <typename T>
char* putPacked(char* p, std::span<const T> v) noexcept {
  static_assert(sizeof(T) == 8);
  if constexpr (std::endian::native == std::endian::little)
    return putBytes(p, v.data(), v.size_bytes());
  for (const T x : v) p = put64(p, std::bit_cast<std::uint64_t>(x));
  return p;
}

}  // namespace

BinWriter BinWriter::sized(std::size_t bytes) {
  BinWriter w{Mode::Sized};
  w.buf_.resize(bytes);
  return w;
}

char* BinWriter::record(Tag tag, std::string_view name,
                        std::size_t valueBytes) {
  const std::size_t at = size_;
  const std::size_t end = at + 1 + 4 + name.size() + valueBytes;
  switch (mode_) {
    case Mode::Counting:
      size_ = end;
      return nullptr;
    case Mode::Sized:
      if (end > buf_.size())
        throw CheckpointError{
            "BinWriter: record '" + std::string{name} + "' runs past the " +
            std::to_string(buf_.size()) +
            " bytes the payload was sized for (the save wrote more than "
            "it counted)"};
      break;
    case Mode::Growing:
      if (end > buf_.size())
        buf_.resize(std::max({end, 2 * buf_.size(), std::size_t{256}}));
      break;
  }
  size_ = end;
  char* p = buf_.data() + at;
  *p++ = static_cast<char>(tag);
  p = put32(p, static_cast<std::uint32_t>(name.size()));
  return putBytes(p, name.data(), name.size());
}

void BinWriter::u64(std::string_view name, std::uint64_t v) {
  if (char* p = record(Tag::U64, name, 8)) put64(p, v);
}

void BinWriter::i64(std::string_view name, std::int64_t v) {
  if (char* p = record(Tag::I64, name, 8))
    put64(p, static_cast<std::uint64_t>(v));
}

void BinWriter::f64(std::string_view name, double v) {
  if (char* p = record(Tag::F64, name, 8))
    put64(p, std::bit_cast<std::uint64_t>(v));
}

void BinWriter::boolean(std::string_view name, bool v) {
  if (char* p = record(Tag::Bool, name, 1)) *p = v ? 1 : 0;
}

void BinWriter::str(std::string_view name, std::string_view v) {
  if (char* p = record(Tag::Str, name, 4 + v.size()))
    putBytes(put32(p, static_cast<std::uint32_t>(v.size())), v.data(),
             v.size());
}

void BinWriter::vecF64(std::string_view name, std::span<const double> first,
                       std::span<const double> second) {
  const std::size_t count = first.size() + second.size();
  if (char* p = record(Tag::VecF64, name, 4 + 8 * count))
    putPacked(putPacked(put32(p, static_cast<std::uint32_t>(count)), first),
              second);
}

void BinWriter::vecI64(std::string_view name,
                       std::span<const std::int64_t> v) {
  if (char* p = record(Tag::VecI64, name, 4 + 8 * v.size()))
    putPacked(put32(p, static_cast<std::uint32_t>(v.size())), v);
}

void BinWriter::vecInt(std::string_view name, std::span<const int> v) {
  if (char* p = record(Tag::VecI64, name, 4 + 8 * v.size())) {
    p = put32(p, static_cast<std::uint32_t>(v.size()));
    for (const int x : v)
      p = put64(p, static_cast<std::uint64_t>(std::int64_t{x}));
  }
}

void BinWriter::beginSection(std::string_view name) {
  (void)record(Tag::SectionBegin, name, 0);
  openStarts_.push_back(openNames_.size());
  openNames_.append(name);
}

void BinWriter::endSection() {
  if (openStarts_.empty())
    throw CheckpointError{"BinWriter::endSection with no open section"};
  const std::size_t start = openStarts_.back();
  (void)record(Tag::SectionEnd, std::string_view{openNames_}.substr(start),
               0);
  openNames_.resize(start);
  openStarts_.pop_back();
}

std::string BinWriter::take() {
  if (!openStarts_.empty())
    throw CheckpointError{
        "BinWriter::take with unclosed section '" +
        openNames_.substr(openStarts_.back()) + "'"};
  if (mode_ == Mode::Sized && size_ != buf_.size())
    throw CheckpointError{"BinWriter::take: " + std::to_string(size_) +
                          " bytes written but the payload was sized for " +
                          std::to_string(buf_.size()) +
                          " (the save wrote less than it counted)"};
  if (mode_ != Mode::Counting) buf_.resize(size_);
  size_ = 0;
  return std::move(buf_);
}

// ---------------------------------------------------------------- BinReader

std::string_view BinReader::rawBytes(std::size_t n, std::string_view what) {
  if (bytes_.size() - pos_ < n)
    throw CheckpointError{"truncated checkpoint payload at offset " +
                          std::to_string(pos_) + " while reading " +
                          std::string{what}};
  const std::string_view out = bytes_.substr(pos_, n);
  pos_ += n;
  return out;
}

std::uint32_t BinReader::raw32(std::string_view what) {
  const std::string_view b = rawBytes(4, what);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(b[i]))
         << (8 * i);
  return v;
}

std::uint64_t BinReader::raw64(std::string_view what) {
  const std::string_view b = rawBytes(8, what);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[i]))
         << (8 * i);
  return v;
}

std::uint32_t BinReader::vectorCount(std::string_view name) {
  const std::uint32_t count = raw32(name);
  if (count > remaining() / 8)
    throw CheckpointError{"truncated checkpoint payload at offset " +
                          std::to_string(pos_) + ": '" + path(name) +
                          "' claims " + std::to_string(count) +
                          " elements but " + std::to_string(remaining()) +
                          " bytes remain"};
  return count;
}

void BinReader::expectHeader(Tag tag, std::string_view name) {
  const std::size_t at = pos_;
  const std::string_view tagByte = rawBytes(1, "record tag");
  const auto found = static_cast<Tag>(static_cast<unsigned char>(tagByte[0]));
  const std::uint32_t nameLen = raw32("field-name length");
  if (nameLen > kMaxNameLength)
    throw CheckpointError{"corrupt checkpoint payload at offset " +
                          std::to_string(at) + ": implausible field-name " +
                          "length " + std::to_string(nameLen)};
  const std::string_view foundName = rawBytes(nameLen, "field name");
  if (found != tag || foundName != name)
    throw CheckpointError{
        "checkpoint schema mismatch at offset " + std::to_string(at) +
        ": expected " + std::string{toString(tag)} + " '" + path(name) +
        "', found " + std::string{toString(found)} + " '" +
        printable(foundName) + "'"};
}

std::uint64_t BinReader::u64(std::string_view name) {
  expectHeader(Tag::U64, name);
  return raw64(name);
}

std::int64_t BinReader::i64(std::string_view name) {
  expectHeader(Tag::I64, name);
  return static_cast<std::int64_t>(raw64(name));
}

double BinReader::f64(std::string_view name) {
  expectHeader(Tag::F64, name);
  return std::bit_cast<double>(raw64(name));
}

bool BinReader::boolean(std::string_view name) {
  expectHeader(Tag::Bool, name);
  return rawBytes(1, name)[0] != 0;
}

std::string BinReader::str(std::string_view name) {
  expectHeader(Tag::Str, name);
  const std::uint32_t len = raw32(name);
  return std::string{rawBytes(len, name)};
}

template <class T>
std::vector<T> BinReader::packed(Tag tag, std::string_view name) {
  expectHeader(tag, name);
  std::vector<T> out(vectorCount(name));
  for (T& x : out) x = std::bit_cast<T>(raw64(name));
  return out;
}

std::vector<double> BinReader::vecF64(std::string_view name) {
  return packed<double>(Tag::VecF64, name);
}

std::vector<std::int64_t> BinReader::vecI64(std::string_view name) {
  return packed<std::int64_t>(Tag::VecI64, name);
}

std::vector<int> BinReader::vecInt(std::string_view name) {
  const std::vector<std::int64_t> wide = vecI64(name);
  std::vector<int> out;
  out.reserve(wide.size());
  for (std::size_t i = 0; i < wide.size(); ++i) {
    if (wide[i] < std::numeric_limits<int>::min() ||
        wide[i] > std::numeric_limits<int>::max())
      fail(name, "holds " + std::to_string(wide[i]) + " at [" +
                     std::to_string(i) + "], outside int range");
    out.push_back(static_cast<int>(wide[i]));
  }
  return out;
}

void BinReader::beginSection(std::string_view name) {
  expectHeader(Tag::SectionBegin, name);
  pathStarts_.push_back(path_.size());
  if (!path_.empty()) path_ += '/';
  path_.append(name);
}

void BinReader::beginSection(std::string_view name, std::size_t index) {
  beginSection(name);
  path_ += '[';
  path_ += std::to_string(index);
  path_ += ']';
}

std::string BinReader::path(std::string_view field) const {
  if (path_.empty()) return std::string{field};
  std::string out = path_;
  out += '/';
  out.append(field);
  return out;
}

void BinReader::fail(std::string_view field, std::string_view what) const {
  throw CheckpointError{"checkpoint field '" + path(field) + "' " +
                        std::string{what}};
}

void BinReader::endSection() {
  const std::size_t at = pos_;
  const std::string_view tagByte = rawBytes(1, "section end");
  const auto found = static_cast<Tag>(static_cast<unsigned char>(tagByte[0]));
  const std::uint32_t nameLen = raw32("section-end name length");
  if (nameLen > kMaxNameLength)
    throw CheckpointError{"corrupt checkpoint payload at offset " +
                          std::to_string(at) +
                          ": implausible section-name length"};
  const std::string_view name = rawBytes(nameLen, "section-end name");
  if (found != Tag::SectionEnd)
    throw CheckpointError{"checkpoint schema mismatch at offset " +
                          std::to_string(at) + ": expected end of section '" +
                          path_ + "', found " + std::string{toString(found)} +
                          " '" + printable(name) + "'"};
  if (!pathStarts_.empty()) {
    path_.resize(pathStarts_.back());
    pathStarts_.pop_back();
  }
}

void BinReader::expectEnd() const {
  if (pos_ < bytes_.size())
    throw CheckpointError{
        "checkpoint payload has " + std::to_string(bytes_.size() - pos_) +
        " unconsumed trailing bytes (schema drift between writer and reader)"};
}

// ----------------------------------------------------------------- tokenize

std::vector<Token> tokenize(std::string_view bytes) {
  std::vector<Token> tokens;
  std::vector<std::string> path;
  BinReader r{bytes};
  while (!r.atEnd()) {
    Token tok;
    tok.offset = r.pos_;
    tok.tag =
        static_cast<Tag>(static_cast<unsigned char>(r.rawBytes(1, "tag")[0]));
    const std::uint32_t nameLen = r.raw32("name length");
    if (nameLen > kMaxNameLength)
      throw CheckpointError{"corrupt checkpoint payload at offset " +
                            std::to_string(tok.offset) +
                            ": implausible field-name length"};
    const std::string name{r.rawBytes(nameLen, "name")};
    std::size_t valueStart = r.pos_;
    switch (tok.tag) {
      case Tag::SectionBegin:
        path.push_back(name);
        continue;
      case Tag::SectionEnd:
        if (path.empty())
          throw CheckpointError{"corrupt checkpoint payload at offset " +
                                std::to_string(tok.offset) +
                                ": section end without a section"};
        path.pop_back();
        continue;
      case Tag::U64:
      case Tag::I64:
      case Tag::F64:
        (void)r.rawBytes(8, name);
        break;
      case Tag::Bool:
        (void)r.rawBytes(1, name);
        break;
      case Tag::Str: {
        const std::uint32_t len = r.raw32(name);
        valueStart = r.pos_;
        (void)r.rawBytes(len, name);
        break;
      }
      case Tag::VecF64:
      case Tag::VecI64: {
        const std::uint32_t count = r.vectorCount(name);
        valueStart = r.pos_;
        (void)r.rawBytes(std::size_t{count} * 8, name);
        break;
      }
      default:
        throw CheckpointError{"corrupt checkpoint payload at offset " +
                              std::to_string(tok.offset) +
                              ": unknown record tag " +
                              std::to_string(static_cast<unsigned>(tok.tag))};
    }
    tok.bits = std::string{bytes.substr(valueStart, r.pos_ - valueStart)};
    for (const std::string& p : path) {
      tok.path += p;
      tok.path += '/';
    }
    tok.path += name;
    tokens.push_back(std::move(tok));
  }
  if (!path.empty())
    throw CheckpointError{"corrupt checkpoint payload: section '" +
                          path.back() + "' never ends"};
  return tokens;
}

std::string Token::value() const {
  const auto word = [this](std::size_t i) {  // little-endian, as written
    std::uint64_t v = 0;
    for (std::size_t b = 0; b < 8; ++b)
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bits[8 * i + b]))
           << (8 * b);
    return v;
  };
  const auto render = [&](std::size_t i) {
    return tag == Tag::F64 || tag == Tag::VecF64
               ? formatF64(std::bit_cast<double>(word(i)))
           : tag == Tag::U64
               ? std::to_string(word(i))
               : std::to_string(static_cast<std::int64_t>(word(i)));
  };
  switch (tag) {
    case Tag::Bool:
      return bits[0] != 0 ? "true" : "false";
    case Tag::Str:
      return '"' + printable(bits) + '"';
    case Tag::VecF64:
    case Tag::VecI64: {
      std::string out{'['};
      for (std::size_t i = 0; i < bits.size() / 8; ++i) {
        if (i > 0) out += ", ";
        out += render(i);
      }
      out += ']';
      return out;
    }
    default:
      return render(0);
  }
}

std::string describeDivergence(const Token& a, const Token& b) {
  std::string out = a.path;
  out += ": ";
  out += a.value();
  out += " vs ";
  out += b.value();
  return out;
}

std::optional<std::string> firstDivergence(std::string_view payloadA,
                                           std::string_view payloadB) {
  const std::vector<Token> a = tokenize(payloadA);
  const std::vector<Token> b = tokenize(payloadB);
  const std::size_t shared = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < shared; ++i) {
    if (a[i] == b[i]) continue;
    if (a[i].path != b[i].path)
      return "structure diverges at record " + std::to_string(i) + ": '" +
             a[i].path + "' vs '" + b[i].path + "'";
    return describeDivergence(a[i], b[i]);
  }
  if (a.size() != b.size())
    return "payloads agree for " + std::to_string(shared) +
           " records, then " + (a.size() < b.size() ? "A" : "B") +
           " ends early (" + std::to_string(a.size()) + " vs " +
           std::to_string(b.size()) + " records)";
  return std::nullopt;
}

}  // namespace dike::ckpt
