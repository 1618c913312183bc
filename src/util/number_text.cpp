#include "util/number_text.hpp"

#include <charconv>
#include <stdexcept>

namespace dike::util {

void appendGeneral(std::string& out, double value, int precision) {
  // Longest %.17g text: sign, 17 digits, point, "e-308" — 25 bytes.
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value,
                                       std::chars_format::general, precision);
  if (ec != std::errc{})
    throw std::logic_error{"appendGeneral: precision out of range"};
  out.append(buf, end);
}

}  // namespace dike::util
