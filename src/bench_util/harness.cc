#include "bench_util/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace rigpm {

double TimeMs(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

uint64_t MatchLimitFromEnv() {
  const char* env = std::getenv("RIGPM_LIMIT");
  if (env == nullptr) return 100'000;
  uint64_t v = std::strtoull(env, nullptr, 10);
  return v > 0 ? v : 100'000;
}

double TimeoutMsFromEnv() {
  const char* env = std::getenv("RIGPM_TIMEOUT_MS");
  if (env == nullptr) return 10'000.0;
  double v = std::atof(env);
  return v > 0 ? v : 10'000.0;
}

std::string FormatSeconds(double ms) {
  char buf[32];
  double s = ms / 1000.0;
  if (s < 0.01) {
    // Three significant digits (0.000123): a fixed four decimals would
    // leave a sub-millisecond cell one digit, or none.
    int decimals =
        s > 0.0 ? 2 - static_cast<int>(std::floor(std::log10(s))) : 4;
    std::snprintf(buf, sizeof(buf), "%.*f", std::clamp(decimals, 4, 9), s);
  } else if (s < 10) {
    std::snprintf(buf, sizeof(buf), "%.3f", s);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f", s);
  }
  return buf;
}

void PrintBenchHeader(const std::string& title, const std::string& details) {
  static constexpr char kRule[] =
      "==============================================================";
  std::printf("%s\n", kRule);
  std::printf("%s\n", title.c_str());
  if (!details.empty()) std::printf("%s\n", details.c_str());
  std::printf("%s\n", kRule);
}

}  // namespace rigpm
