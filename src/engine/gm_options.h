#ifndef RIGPM_ENGINE_GM_OPTIONS_H_
#define RIGPM_ENGINE_GM_OPTIONS_H_

#include <cstdint>
#include <limits>
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
  bool early_termination = true;

  /// Enumeration cap (the experiments stop at 1e7 matches); 0 enumerates
  /// nothing.
  uint64_t limit = std::numeric_limits<uint64_t>::max();

  /// GmEngine::EvaluateBatch worker count: 1 = sequential (the default),
  /// 0 = std::thread::hardware_concurrency(), N > 1 = that many workers.
  /// Evaluate and EvaluateCollect ignore it; every query enumerates
  /// sequentially.
  uint32_t num_threads = 1;
};

/// Name/duration pair for one pipeline phase (engine/pipeline.h). The name
/// points at a static string owned by the phase object.
struct PhaseTiming {
  const char* name = "";
  double ms = 0.0;
};

/// Everything one evaluation produces besides the occurrences themselves.
struct GmResult {
  uint64_t num_occurrences = 0;
  bool hit_limit = false;

  // Phase timings (milliseconds). "matching" = reduction + filtering + RIG +
  // ordering; "enumeration" = the MJoin run — the two components the paper's
  // Metrics section reports.
  double reduction_ms = 0.0;
  double prefilter_ms = 0.0;
  double rig_select_ms = 0.0;
  double rig_expand_ms = 0.0;
  double order_ms = 0.0;
  double enumerate_ms = 0.0;
  double MatchingMs() const {
    return reduction_ms + prefilter_ms + rig_select_ms + rig_expand_ms +
           order_ms;
  }
  double TotalMs() const { return MatchingMs() + enumerate_ms; }

  /// Wall-clock per executed pipeline phase, in execution order (one entry
  /// per Phase the QueryPipeline ran; phases skipped by the empty-RIG
  /// shortcut are absent).
  std::vector<PhaseTiming> phase_timings;

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
