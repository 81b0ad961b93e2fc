#ifndef RIGPM_RIG_RIG_BUILDER_H_
#define RIGPM_RIG_RIG_BUILDER_H_

#include <cstdint>

#include "rig/rig.h"
#include "sim/fbsim.h"
#include "sim/match_sets.h"

namespace rigpm {

/// Options for Algorithm 4 (BuildRIG).
struct RigBuildOptions {
  /// Double-simulation algorithm for the node-selection phase.
  SimAlgorithm sim_algorithm = SimAlgorithm::kDagMap;

  /// Simulation tuning. The paper fixes max_passes = 3 ("approximate the
  /// double simulation by stopping after N passes", Section 4.5).
  SimOptions sim = {.max_passes = 3};

  /// Skip the simulation entirely and expand over the given node sets
  /// (match sets or pre-filtered sets) — the GM-F ablation of Fig. 13.
  bool skip_simulation = false;
};

struct RigBuildStats {
  SimStats sim;
  uint64_t expand_pair_checks = 0;  // candidate pairs probed in expansion
};

/// Procedure select of Algorithm 4 as a standalone stage: refines `initial`
/// into the RIG node sets cos(q) by running the double simulation from
/// `initial` itself (a pass-through when opts.skip_simulation). `initial`
/// must contain os(q): ms(q), or the pre-filtered sets GmEngine's Prefilter
/// phase computes, which the simulation then does not re-prune. Fills
/// stats->sim. GmEngine runs this as its Simulate phase.
CandidateSets SelectRigNodes(const MatchContext& ctx, const PatternQuery& q,
                             CandidateSets initial,
                             const RigBuildOptions& opts = {},
                             RigBuildStats* stats = nullptr);

/// Procedure expand of Algorithm 4 as a standalone stage: wraps the selected
/// node sets into a Rig and materializes the RIG edges per query edge.
/// A descendant edge probes every pair of cos(p) x cos(q) in ascending id
/// order, so each row receives its members in order and every insert
/// appends. Section 4.5's early expansion termination (scan cos(q) in DFS
/// begin order, stop at the first vq that starts after vp finished) is not
/// used: on perfbench's cold workloads it skipped under 0.2% of the
/// probes, its begin order made each insert shift an array container, and
/// BFL applies the same interval cut inside Reaches. Expansion is skipped
/// when some cos(q) is empty (the answer is then provably empty). Fills
/// stats->expand_pair_checks. GmEngine runs this as its BuildRig phase.
Rig ExpandRig(const MatchContext& ctx, const PatternQuery& q,
              CandidateSets cos, RigBuildStats* stats = nullptr);

/// Algorithm 4: node selection (double simulation over `ctx`) followed by
/// node expansion into RIG edges — SelectRigNodes + ExpandRig in one call.
/// `initial` is the candidate sets to start from (typically ms(q); a
/// pre-filtered subset for the GM variants).
Rig BuildRig(const MatchContext& ctx, const PatternQuery& q,
             CandidateSets initial, const RigBuildOptions& opts = {},
             RigBuildStats* stats = nullptr);

/// Convenience: starts from the label match sets ms(q).
Rig BuildRigFromMatchSets(const MatchContext& ctx, const PatternQuery& q,
                          const RigBuildOptions& opts = {},
                          RigBuildStats* stats = nullptr);

}  // namespace rigpm

#endif  // RIGPM_RIG_RIG_BUILDER_H_
