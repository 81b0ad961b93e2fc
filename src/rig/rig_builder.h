#ifndef RIGPM_RIG_RIG_BUILDER_H_
#define RIGPM_RIG_RIG_BUILDER_H_

#include <cstdint>

#include "rig/rig.h"
#include "sim/fbsim.h"
#include "sim/match_sets.h"

namespace rigpm {

struct RigBuildStats {
  SimStats sim;
  /// Candidate pairs probed in expansion: every out-neighbour tested
  /// against cos(q) on a child edge, every (vp, vq) of cos(p) x cos(q) on a
  /// descendant edge.
  uint64_t expand_pair_checks = 0;
};

/// Procedure expand of Algorithm 4 as a standalone stage: wraps the selected
/// node sets into a Rig and materializes the RIG edges per query edge.
/// Procedure select, the double simulation that refines ms(q) into cos(q),
/// is ComputeDoubleSimulation (sim/fbsim.h); GM-F's ablation expands the
/// pre-filtered sets without it. A child edge walks each vp's out-neighbours
/// and keeps those in cos(q). A descendant edge probes every pair of
/// cos(p) x cos(q) in ascending id order, so each row receives its members
/// in order and every insert appends. Section 4.5's early expansion
/// termination (scan cos(q) in DFS begin order, stop at the first vq that
/// starts after vp finished) is not used: on perfbench's cold workloads it
/// skipped under 0.2% of the probes, its begin order made each insert shift
/// an array container, and BFL applies the same interval cut inside
/// Reaches. A loop (p, p) first narrows cos(p) to the nodes v whose pair
/// (v, v) it accepts and then gets exactly those diagonal pairs, so MJoin
/// never tests it. Expansion is skipped when some cos(q) is empty (the
/// answer is then provably empty). Fills stats->expand_pair_checks.
/// GmEngine runs this as its BuildRig phase.
Rig ExpandRig(const MatchContext& ctx, const PatternQuery& q,
              CandidateSets cos, RigBuildStats* stats = nullptr);

}  // namespace rigpm

#endif  // RIGPM_RIG_RIG_BUILDER_H_
