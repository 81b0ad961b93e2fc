#ifndef RIGPM_SIM_FBSIM_BAS_H_
#define RIGPM_SIM_FBSIM_BAS_H_

#include "sim/match_sets.h"

namespace rigpm {

/// Algorithm 1, FBSimBas: the baseline double-simulation computation.
/// Starts from FB(q) = `seed` — ms(q), or any subset of it that still
/// contains os(q), such as the pre-filtered sets — and alternates
/// forwardPrune / backwardPrune sweeps over the query edges in arbitrary
/// (index) order until FB is stable or `opts.max_passes` is reached. Every
/// prune is monotone and sound from any superset of os(q), so the result
/// always satisfies
///   os(q) ⊆ FB(q) ⊆ seed,
/// and, seeded with ms(q) and run to the fixpoint, equals the (unique,
/// largest) double simulation of Definition 1.
CandidateSets FBSimBas(const MatchContext& ctx, const PatternQuery& q,
                       CandidateSets seed, const SimOptions& opts = {},
                       SimStats* stats = nullptr);

/// Forward simulation only (conditions 1 & 2 of Definition 1) — used by the
/// tests that reproduce Table 1.
CandidateSets ForwardSimulation(const MatchContext& ctx, const PatternQuery& q,
                                const SimOptions& opts = {});

/// Backward simulation only (conditions 1 & 3 of Definition 1).
CandidateSets BackwardSimulation(const MatchContext& ctx,
                                 const PatternQuery& q,
                                 const SimOptions& opts = {});

}  // namespace rigpm

#endif  // RIGPM_SIM_FBSIM_BAS_H_
