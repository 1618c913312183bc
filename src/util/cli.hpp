// A tiny --flag=value / --flag value argument parser for examples and
// bench binaries. Not a general-purpose CLI library; just enough to keep the
// executables dependency-free and consistent.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dike::util {

/// Parses `--name=value`, `--name value`, and bare `--name` boolean flags.
/// Positional (non-flag) arguments are collected in order.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] std::optional<std::string> get(std::string_view name) const;
  [[nodiscard]] std::string getOr(std::string_view name,
                                  std::string_view fallback) const;
  // The typed getters return the fallback when the flag is absent, and
  // throw std::runtime_error naming the flag when it is present but
  // malformed ("--seed 12x") — a typo must never silently become 0.
  [[nodiscard]] int getInt(std::string_view name, int fallback) const;
  [[nodiscard]] std::int64_t getInt64(std::string_view name,
                                      std::int64_t fallback) const;
  [[nodiscard]] double getDouble(std::string_view name, double fallback) const;
  [[nodiscard]] bool getBool(std::string_view name, bool fallback) const;

  /// The first flag (in name order) that is not in `known`, if any, so a
  /// binary can refuse a misspelt flag instead of ignoring it.
  [[nodiscard]] std::optional<std::string> firstUnknown(
      const std::vector<std::string_view>& known) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  [[nodiscard]] const std::string& programName() const noexcept {
    return program_;
  }

 private:
  std::string program_;
  std::map<std::string, std::string, std::less<>> flags_;
  std::vector<std::string> positional_;
};

}  // namespace dike::util
