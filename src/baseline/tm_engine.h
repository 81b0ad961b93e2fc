#ifndef RIGPM_BASELINE_TM_ENGINE_H_
#define RIGPM_BASELINE_TM_ENGINE_H_

#include "baseline/baseline.h"
#include "enumerate/mjoin.h"
#include "sim/match_sets.h"

namespace rigpm {

/// TM: the tree-based approach (Section 7.1). Extracts a spanning tree of
/// the query, evaluates the tree pattern with the simulation-based algorithm
/// of [59] (tree double simulation + answer-graph enumeration), and filters
/// every tree solution against the non-tree edges of the original query.
///
/// Its weakness — shared with all TM algorithms — is that the number of
/// tree solutions can dwarf the final answer, and each one pays a reachability
/// check per missing edge; that is the behaviour the experiments measure.
///
/// Phases: Prefilter, Simulate, BuildRig (the answer graph: GM's RIG over
/// the tree query) and Enumerate. Counters: tree_solutions, and the answer
/// graph's rig_nodes and rig_edges (Fig. 13).
BaselineResult TmEvaluate(const MatchContext& ctx, const PatternQuery& q,
                          const BaselineOptions& opts = {},
                          const OccurrenceSink& sink = nullptr);

}  // namespace rigpm

#endif  // RIGPM_BASELINE_TM_ENGINE_H_
