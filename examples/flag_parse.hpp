// Checked parsing of the example CLIs' numeric flag values.
//
// std::atoi, strtol and atof read "4x" as 4 and "abc" as 0, so a typo
// silently ran a different configuration.  parse_flag accepts a value only
// when the WHOLE token parses as a T inside [lo, hi]; anything else is a
// usage error.
#pragma once

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <system_error>

namespace qplec::cli {

/// `lo` for a double flag that must be strictly positive (a gate threshold
/// whose 0 would mean "no gate").
inline constexpr double kPositive = std::numeric_limits<double>::min();

/// `text` parsed as a T in [lo, hi].  On a malformed, overflowing or
/// out-of-range token (NaN included) prints the binary's usage and exits with
/// the status usage() returns.
template <typename T>
T parse_flag(const char* text, int (&usage)(), T lo = std::numeric_limits<T>::lowest(),
             T hi = std::numeric_limits<T>::max()) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || !(lo <= value && value <= hi)) std::exit(usage());
  return value;
}

}  // namespace qplec::cli
