#ifndef RIGPM_BASELINE_JM_ENGINE_H_
#define RIGPM_BASELINE_JM_ENGINE_H_

#include <cstdint>

#include "baseline/baseline.h"
#include "enumerate/mjoin.h"
#include "sim/match_sets.h"

namespace rigpm {

/// JM's default memory budget, in tuples.
inline constexpr uint64_t kJmMaxIntermediateTuples = 20'000'000;

/// JM: the join-based approach (Section 7.1). Materializes ms(e) for every
/// query edge, picks a left-deep binary-join plan by dynamic programming
/// (a greedy plan beyond 16 edges: the paper observes the DP enumerating
/// millions of plans beyond 10 nodes), then executes Selinger-style hash
/// joins, materializing every intermediate result (the behaviour whose cost
/// GM avoids).
///
/// `use_prefilter` applies node pre-filtering [11, 63] before the edge
/// relations are materialized; the experiments always do for JM, and the
/// Neo4j stand-in does not. `max_intermediate_tuples` is the memory budget:
/// the total tuples of the edge relations, and the size of every
/// intermediate result. Exceeding it aborts with kOutOfMemory, JM's
/// dominant failure mode (Section 7.2).
///
/// Phases: Relations, Plan, Join. Counters: plans_considered (DP states
/// expanded) and peak_intermediate (largest intermediate result).
BaselineResult JmEvaluate(
    const MatchContext& ctx, const PatternQuery& q,
    const BaselineOptions& opts = {}, const OccurrenceSink& sink = nullptr,
    bool use_prefilter = true,
    uint64_t max_intermediate_tuples = kJmMaxIntermediateTuples);

}  // namespace rigpm

#endif  // RIGPM_BASELINE_JM_ENGINE_H_
