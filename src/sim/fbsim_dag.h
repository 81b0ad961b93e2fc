#ifndef RIGPM_SIM_FBSIM_DAG_H_
#define RIGPM_SIM_FBSIM_DAG_H_

#include <span>

#include "query/dag_decomposition.h"
#include "sim/match_sets.h"

namespace rigpm {

/// Algorithm 2, FBSimDag: double simulation over a DAG part of a pattern
/// query via dynamic programming over topological orders. Each pass runs
///  * forwardSim  — a bottom-up (reverse topological) traversal checking
///    every node's outgoing edges, then
///  * backwardSim — a top-down traversal checking incoming edges.
/// Converges in fewer passes than FBSimBas because after a bottom-up
/// traversal every surviving node forward-simulates its query node within
/// the pass (Theorem 4.1). Runs over the DAG part described by `topo_order`
/// and the edge subset `dag_edges` until stable, refining `fb` in place;
/// FBSim (Dag+Δ) calls it with the whole query when the query is a DAG.
/// Returns true if `fb` changed.
bool FBSimDagPasses(const MatchContext& ctx, const PatternQuery& q,
                    std::span<const QueryNodeId> topo_order,
                    std::span<const QueryEdgeId> dag_edges, CandidateSets* fb,
                    const SimOptions& opts, SimStats* stats);

}  // namespace rigpm

#endif  // RIGPM_SIM_FBSIM_DAG_H_
