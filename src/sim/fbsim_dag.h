#ifndef RIGPM_SIM_FBSIM_DAG_H_
#define RIGPM_SIM_FBSIM_DAG_H_

#include <span>

#include "query/dag_decomposition.h"
#include "sim/match_sets.h"

namespace rigpm {

/// Algorithm 2, FBSimDag: double simulation for DAG pattern queries via
/// dynamic programming over topological orders. Each pass runs
///  * forwardSim  — a bottom-up (reverse topological) traversal checking
///    every node's outgoing edges, then
///  * backwardSim — a top-down traversal checking incoming edges.
/// Converges in fewer passes than FBSimBas because after a bottom-up
/// traversal every surviving node forward-simulates its query node within
/// the pass (Theorem 4.1). Starts from `seed` (see FBSimBas).
/// Precondition: `q` is a DAG (checked).
CandidateSets FBSimDag(const MatchContext& ctx, const PatternQuery& q,
                       CandidateSets seed, const SimOptions& opts = {},
                       SimStats* stats = nullptr);

/// In-place variant used as a phase by FBSim (Dag+Δ): runs forwardSim /
/// backwardSim passes over the DAG part described by `topo_order` and the
/// edge subset `dag_edges` until stable. Returns true if `fb` changed.
bool FBSimDagPasses(const MatchContext& ctx, const PatternQuery& q,
                    std::span<const QueryNodeId> topo_order,
                    std::span<const QueryEdgeId> dag_edges, CandidateSets* fb,
                    const SimOptions& opts, SimStats* stats);

}  // namespace rigpm

#endif  // RIGPM_SIM_FBSIM_DAG_H_
