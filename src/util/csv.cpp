#include "util/csv.hpp"

#include <stdexcept>

#include "util/number_text.hpp"

namespace dike::util {

std::string csvEscape(std::string_view field) {
  const bool needsQuote =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needsQuote) return std::string{field};
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void CsvWriter::header(std::initializer_list<std::string_view> names) {
  bool first = true;
  for (auto n : names) {
    writeField(n, first);
    first = false;
  }
  *out_ << '\n';
}

void CsvWriter::header(const std::vector<std::string>& names) {
  bool first = true;
  for (const auto& n : names) {
    writeField(std::string_view{n}, first);
    first = false;
  }
  *out_ << '\n';
}

void CsvWriter::writeField(std::string_view v, bool first) {
  if (!first) *out_ << ',';
  *out_ << csvEscape(v);
}

void CsvWriter::writeField(double v, bool first) {
  if (!first) *out_ << ',';
  std::string text;
  appendGeneral(text, v, 6);
  *out_ << text;
}

void CsvWriter::writeField(int v, bool first) {
  if (!first) *out_ << ',';
  *out_ << v;
}

void CsvWriter::writeField(long v, bool first) {
  if (!first) *out_ << ',';
  *out_ << v;
}

void CsvWriter::writeField(long long v, bool first) {
  if (!first) *out_ << ',';
  *out_ << v;
}

void CsvWriter::writeField(unsigned long v, bool first) {
  if (!first) *out_ << ',';
  *out_ << v;
}

void CsvWriter::writeField(unsigned long long v, bool first) {
  if (!first) *out_ << ',';
  *out_ << v;
}

std::vector<std::string> parseCsvLine(std::string_view line) {
  std::vector<std::string> fields;
  std::string current;
  bool quoted = false;
  std::size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          i += 2;
          continue;
        }
        quoted = false;
        ++i;
        continue;
      }
      current.push_back(c);
      ++i;
      continue;
    }
    if (c == '"' && current.empty()) {
      quoted = true;
      ++i;
      continue;
    }
    if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
      ++i;
      continue;
    }
    current.push_back(c);
    ++i;
  }
  if (quoted)
    throw std::runtime_error{"unterminated quoted CSV field: " +
                             std::string{line}};
  fields.push_back(std::move(current));
  return fields;
}

CsvFile::CsvFile(const std::string& path) : file_(path), writer_(file_) {
  if (!file_) throw std::runtime_error{"cannot open CSV file: " + path};
}

}  // namespace dike::util
