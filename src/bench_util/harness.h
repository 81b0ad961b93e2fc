#ifndef RIGPM_BENCH_UTIL_HARNESS_H_
#define RIGPM_BENCH_UTIL_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

namespace rigpm {

/// Wall-clock timing of a callable, in milliseconds.
double TimeMs(const std::function<void()>& fn);

/// Environment-variable knobs shared by the bench binaries.
///  * RIGPM_LIMIT      — per-query match cap (paper: 1e7; default 1e5 at the
///                       reduced default scale),
///  * RIGPM_TIMEOUT_MS — per-query time budget (paper: 10 min; default 10 s).
uint64_t MatchLimitFromEnv();
double TimeoutMsFromEnv();

/// Formats a duration like the paper's tables, in seconds: three
/// significant digits under 10 ms (0.000123), three decimals under 10 s,
/// one above.
std::string FormatSeconds(double ms);

/// Prints the standard bench banner (dataset summary, scale, limits).
void PrintBenchHeader(const std::string& title, const std::string& details);

}  // namespace rigpm

#endif  // RIGPM_BENCH_UTIL_HARNESS_H_
