#ifndef RIGPM_BASELINE_BASELINE_H_
#define RIGPM_BASELINE_BASELINE_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "engine/gm_options.h"

namespace rigpm {

/// Outcome of a baseline evaluation run. The experiments in Section 7 report
/// unsolved queries in two buckets — out-of-memory (JM's typical failure)
/// and timeout (TM's typical failure) — so the baselines track both instead
/// of aborting the process.
enum class EvalStatus {
  kOk,
  kOutOfMemory,  // intermediate results exceeded the configured budget
  kTimeout,      // wall-clock budget exhausted
  kUnsupported,  // engine cannot express the query (e.g. ISO + descendant)
};

inline const char* EvalStatusName(EvalStatus s) {
  switch (s) {
    case EvalStatus::kOk:
      return "ok";
    case EvalStatus::kOutOfMemory:
      return "OM";
    case EvalStatus::kTimeout:
      return "TO";
    case EvalStatus::kUnsupported:
      return "NA";
  }
  return "?";
}

/// The settings every baseline (JM, TM, ISO, WCOJ) takes.
struct BaselineOptions {
  /// Emit at most this many occurrences; 0 emits none.
  uint64_t limit = std::numeric_limits<uint64_t>::max();
  /// Wall-clock budget; 0 disables (the experiments use 10 minutes).
  double timeout_ms = 0.0;
};

/// Name/value pair for a count only one engine keeps. The name is a string
/// literal.
struct EngineCounter {
  const char* name = "";
  uint64_t value = 0;
};

/// What every baseline evaluation reports.
struct BaselineResult {
  EvalStatus status = EvalStatus::kOk;
  uint64_t num_occurrences = 0;
  /// Wall-clock per phase the engine ran, in execution order, as GM
  /// reports its own (GmResult::phase_timings). A run that failed lacks
  /// the phases after the one that failed.
  std::vector<PhaseTiming> phase_timings;
  /// JM: plans_considered, peak_intermediate. TM: tree_solutions, and
  /// rig_nodes / rig_edges of its answer graph (the spanning tree's RIG).
  std::vector<EngineCounter> counters;

  double PhaseMs(std::string_view name) const {
    return rigpm::PhaseMs(phase_timings, name);
  }
  double TotalMs() const { return rigpm::TotalMs(phase_timings); }
  /// The named counter's value; 0 when the engine keeps no such counter.
  uint64_t Counter(std::string_view name) const {
    for (const EngineCounter& c : counters) {
      if (name == c.name) return c.value;
    }
    return 0;
  }
};

/// The clock of one baseline run: its deadline and its phase log.
class RunClock {
 public:
  explicit RunClock(double timeout_ms) : timeout_ms_(timeout_ms) {}

  /// True once a positive budget has run out.
  bool Expired() const {
    return timeout_ms_ > 0.0 && Ms(Clock::now() - start_) > timeout_ms_;
  }

  /// Books the time since the previous EndPhase, or since the start, as
  /// phase `name` of `r`.
  void EndPhase(const char* name, BaselineResult* r) {
    const Clock::time_point now = Clock::now();
    r->phase_timings.push_back({name, Ms(now - mark_)});
    mark_ = now;
  }

 private:
  using Clock = std::chrono::steady_clock;
  static double Ms(Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  }

  double timeout_ms_;
  Clock::time_point start_ = Clock::now();
  Clock::time_point mark_ = start_;
};

}  // namespace rigpm

#endif  // RIGPM_BASELINE_BASELINE_H_
