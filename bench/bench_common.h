#ifndef RIGPM_BENCH_BENCH_COMMON_H_
#define RIGPM_BENCH_BENCH_COMMON_H_

// Shared plumbing for the per-figure bench binaries. A figure lists the
// engines it compares as NamedEngines, GM first (bench_util/count_gate.h);
// Run evaluates each on a query with the environment's limit and timeout,
// formats each outcome the way the paper's tables do (seconds, or
// "OM"/"TO"/"NA"), and checks every count against GM's through the bench's
// CountGate, whose Finish() prints the gate's summary line and makes the
// bench's exit code 1 after a mismatch.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util/count_gate.h"
#include "bench_util/datasets.h"
#include "bench_util/harness.h"
#include "bench_util/table_printer.h"
#include "bench_util/workloads.h"
#include "engine/gm_engine.h"

namespace rigpm::bench {

/// Reads a kB-valued field ("VmHWM", "VmRSS", ...) from /proc/self/status.
/// Returns -1 when unavailable (non-Linux). VmHWM is the peak resident set
/// — the number the mmap-vs-slurp warm-start comparison is about.
inline long ReadProcStatusKb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long value = -1;
  const size_t field_len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0 &&
        line[field_len] == ':') {
      value = std::strtol(line + field_len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return value;
}

}  // namespace rigpm::bench

#endif  // RIGPM_BENCH_BENCH_COMMON_H_
