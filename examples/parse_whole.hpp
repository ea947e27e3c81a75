// Strict numeric command-line values for the example drivers.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
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

/// The integer `text` given for `what` on `prog`'s command line, which must
/// be at least `min`.  Anything else is a usage error: one line on stderr
/// and exit 2.
template <typename T>
[[nodiscard]] T whole_at_least(const char* prog, const char* what,
                               const char* text, T min) {
  T v{};
  if (!parse_whole(text, v) || v < min) {
    std::fprintf(stderr, "%s: %s: not an integer >= %lld: %s\n", prog, what,
                 static_cast<long long>(min), text);
    std::exit(2);
  }
  return v;
}

}  // namespace hpcvorx::examples
