#ifndef RIGPM_ENGINE_GM_OPTIONS_H_
#define RIGPM_ENGINE_GM_OPTIONS_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "enumerate/mjoin.h"
#include "order/search_order.h"
#include "query/pattern_query.h"
#include "rig/rig_builder.h"
#include "sim/match_sets.h"

namespace rigpm {

/// Configuration of one GM evaluation. The defaults reproduce the paper's
/// GM; the named ablations of Section 7.4 are specific flag settings:
///   GM    — defaults (pre-filter + double simulation + reduction),
///   GM-S  — use_prefilter = false,
///   GM-F  — use_double_simulation = false (pre-filter only),
///   GM-NR — use_transitive_reduction = false.
struct GmOptions {
  bool use_transitive_reduction = true;
  bool use_prefilter = true;
  bool use_double_simulation = true;

  SimAlgorithm sim_algorithm = SimAlgorithm::kDagMap;
  /// Simulation tuning; the paper stops after 3 passes.
  SimOptions sim = {.max_passes = 3};

  OrderStrategy order = OrderStrategy::kJO;

  /// Enumeration cap (the experiments stop at 1e7 matches); 0 enumerates
  /// nothing.
  uint64_t limit = std::numeric_limits<uint64_t>::max();

  /// GmEngine::EvaluateBatch worker count: 1 = sequential (the default),
  /// 0 = std::thread::hardware_concurrency(), N > 1 = that many workers.
  /// Evaluate and EvaluateCollect ignore it; every query enumerates
  /// sequentially.
  uint32_t num_threads = 1;
};

/// Name/duration pair for one phase of an evaluation. The name is a string
/// literal; GM's are Reduce, Prefilter, Simulate, BuildRig, Order and
/// Enumerate.
struct PhaseTiming {
  const char* name = "";
  double ms = 0.0;
};

/// The named phase's time in ms; 0 when it did not run.
inline double PhaseMs(std::span<const PhaseTiming> phases,
                      std::string_view name) {
  for (const PhaseTiming& pt : phases) {
    if (name == pt.name) return pt.ms;
  }
  return 0.0;
}

inline double TotalMs(std::span<const PhaseTiming> phases) {
  double total = 0.0;
  for (const PhaseTiming& pt : phases) total += pt.ms;
  return total;
}

/// Everything one evaluation produces besides the occurrences themselves.
struct GmResult {
  uint64_t num_occurrences = 0;
  bool hit_limit = false;

  /// Wall-clock per executed phase, in execution order. Phases after
  /// BuildRig are absent when the empty-RIG shortcut stopped the
  /// evaluation.
  std::vector<PhaseTiming> phase_timings;

  double PhaseMs(std::string_view name) const {
    return rigpm::PhaseMs(phase_timings, name);
  }
  double TotalMs() const { return rigpm::TotalMs(phase_timings); }
  /// "Matching" = every phase before the MJoin run, "enumeration" =
  /// PhaseMs("Enumerate"): the two components the paper's Metrics section
  /// reports.
  double MatchingMs() const { return TotalMs() - PhaseMs("Enumerate"); }

  uint64_t rig_nodes = 0;
  uint64_t rig_edges = 0;
  size_t rig_memory_bytes = 0;
  bool empty_rig_shortcut = false;  // answer proven empty before enumeration

  std::vector<QueryNodeId> order_used;
  RigBuildStats rig_stats;
  OrderStats order_stats;
  MJoinStats mjoin_stats;
  uint32_t reduced_query_edges = 0;  // edge count after transitive reduction
};

}  // namespace rigpm

#endif  // RIGPM_ENGINE_GM_OPTIONS_H_
