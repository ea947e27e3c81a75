// Strict numeric command-line values for the example drivers.
#pragma once

#include <charconv>
#include <cstring>
#include <system_error>

namespace hpcvorx::examples {

/// Parses all of `text` as a decimal integer of type T into `out`.  False
/// on an empty string, a non-number ("four"), trailing characters ("1e5",
/// "4x") or a value outside T — inputs std::atoi would quietly read as 0, 1
/// or 4.
template <typename T>
[[nodiscard]] bool parse_whole(const char* text, T& out) {
  const char* const end = text + std::strlen(text);
  const auto [stop, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && stop == end;
}

}  // namespace hpcvorx::examples
