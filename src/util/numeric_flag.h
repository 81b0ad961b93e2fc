#ifndef RIGPM_UTIL_NUMERIC_FLAG_H_
#define RIGPM_UTIL_NUMERIC_FLAG_H_

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace rigpm {

// The one strict parser behind every numeric command-line flag of
// rigpm_cli and the daemon's serve/client tools.

/// True iff the whole of `text` is decimal digits whose value fits T, which
/// is then stored in *out. A sign, a blank, a suffix, an empty string or an
/// out-of-range value fails and leaves *out untouched.
template <typename T>
bool ParseUnsigned(std::string_view text, T* out) {
  static_assert(std::is_unsigned_v<T>);
  const char* end = text.data() + text.size();
  T value{};
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

/// True iff the whole of `text` is a finite double >= 0.
inline bool ParseNonNegativeDouble(std::string_view text, double* out) {
  const char* end = text.data() + text.size();
  double value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) || value < 0) {
    return false;
  }
  *out = value;
  return true;
}

/// Parses the value of numeric flag `flag` with the parser above that fits
/// T. On failure prints an error naming the flag to stderr and returns
/// false; the caller then reports its usage error.
template <typename T>
bool ParseNumericFlag(const char* flag, const char* text, T* out) {
  if constexpr (std::is_floating_point_v<T>) {
    if (ParseNonNegativeDouble(text, out)) return true;
    std::fprintf(stderr, "%s needs a finite number >= 0 (got \"%s\")\n", flag,
                 text);
  } else {
    if (ParseUnsigned(text, out)) return true;
    std::fprintf(stderr,
                 "%s needs a whole number from 0 to %llu (got \"%s\")\n", flag,
                 static_cast<unsigned long long>(std::numeric_limits<T>::max()),
                 text);
  }
  return false;
}

}  // namespace rigpm

#endif  // RIGPM_UTIL_NUMERIC_FLAG_H_
