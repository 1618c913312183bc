#include "util/cli.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

namespace dike::util {

namespace {

/// Parse the full token or fail loudly with the flag name. The previous
/// std::atoi/atoll/atof implementations silently produced 0 for malformed
/// values ("--seed 12x" ran with seed 0), which is exactly the wrong
/// behaviour for experiment configuration.
template <typename T>
T parseOrThrow(std::string_view flag, const std::string& text,
               const char* typeName) {
  T value{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size() || text.empty())
    throw std::runtime_error{"--" + std::string{flag} + " expects " +
                             typeName + ", got '" + text + "'"};
  return value;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.emplace_back(arg);
      continue;
    }
    const std::string_view body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string_view::npos) {
      flags_.emplace(std::string{body.substr(0, eq)},
                     std::string{body.substr(eq + 1)});
      continue;
    }
    // "--name value" if the next token is not itself a flag; else boolean.
    if (i + 1 < argc && std::string_view{argv[i + 1]}.rfind("--", 0) != 0) {
      flags_.emplace(std::string{body}, std::string{argv[i + 1]});
      ++i;
    } else {
      flags_.emplace(std::string{body}, "true");
    }
  }
}

bool CliArgs::has(std::string_view name) const {
  return flags_.find(name) != flags_.end();
}

std::optional<std::string> CliArgs::get(std::string_view name) const {
  if (auto it = flags_.find(name); it != flags_.end()) return it->second;
  return std::nullopt;
}

std::string CliArgs::getOr(std::string_view name,
                           std::string_view fallback) const {
  if (auto v = get(name)) return *v;
  return std::string{fallback};
}

std::optional<std::string> CliArgs::firstUnknown(
    const std::vector<std::string_view>& known) const {
  for (const auto& [name, value] : flags_)
    if (std::find(known.begin(), known.end(), name) == known.end())
      return name;
  return std::nullopt;
}

int CliArgs::getInt(std::string_view name, int fallback) const {
  if (auto v = get(name)) return parseOrThrow<int>(name, *v, "an integer");
  return fallback;
}

std::int64_t CliArgs::getInt64(std::string_view name,
                               std::int64_t fallback) const {
  if (auto v = get(name))
    return parseOrThrow<std::int64_t>(name, *v, "an integer");
  return fallback;
}

double CliArgs::getDouble(std::string_view name, double fallback) const {
  if (auto v = get(name)) return parseOrThrow<double>(name, *v, "a number");
  return fallback;
}

bool CliArgs::getBool(std::string_view name, bool fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  throw std::runtime_error{"--" + std::string{name} +
                           " expects a boolean (true/false/1/0/yes/no/"
                           "on/off), got '" + *v + "'"};
}

}  // namespace dike::util
