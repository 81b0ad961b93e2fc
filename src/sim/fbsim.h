#ifndef RIGPM_SIM_FBSIM_H_
#define RIGPM_SIM_FBSIM_H_

#include <cstdint>

#include "sim/match_sets.h"

namespace rigpm {

/// Which double-simulation algorithm BuildRIG / GM should run (Fig. 12b):
///  * kBas    — Algorithm 1 (arbitrary edge order, "Gra" in the figure),
///  * kDag    — Algorithm 2 / Algorithm 3 without the convergence tuning
///              ("Dag"): topological-order DP, plus the Δ back-edge loop
///              for cyclic queries,
///  * kDagMap — kDag with the change-flag index and batch checks enabled
///              ("DagMap", the tuned default).
enum class SimAlgorithm : uint8_t { kBas, kDag, kDagMap };

const char* SimAlgorithmName(SimAlgorithm a);

/// Algorithm 3, FBSim ("Dag+Δ"): decomposes a cyclic query into a DAG and a
/// back-edge set, alternating FBSimDagPasses on the DAG with FBSimBas-style
/// sweeps on the back edges until the relation stabilizes. A DAG query gets
/// FBSimDagPasses over the whole query alone. Starts from `seed` (see
/// FBSimBas).
CandidateSets FBSim(const MatchContext& ctx, const PatternQuery& q,
                    CandidateSets seed, const SimOptions& opts = {},
                    SimStats* stats = nullptr);

/// Dispatches on `algorithm`, applying the option overrides each named
/// variant implies. Every variant starts from `seed`.
CandidateSets ComputeDoubleSimulation(const MatchContext& ctx,
                                      const PatternQuery& q,
                                      CandidateSets seed,
                                      SimAlgorithm algorithm,
                                      SimOptions opts = {},
                                      SimStats* stats = nullptr);

}  // namespace rigpm

#endif  // RIGPM_SIM_FBSIM_H_
