#include "sim/fbsim_bas.h"

#include <utility>

namespace rigpm {

namespace {

// One forwardPrune sweep (Algorithm 1): for every edge e = (qi, qj), remove
// the nodes of FB(qi) with no forward partner in FB(qj). Returns whether
// anything changed.
bool ForwardSweep(const MatchContext& ctx, const PatternQuery& q,
                  CandidateSets* fb, const SimOptions& opts, SimStats* stats) {
  bool changed = false;
  for (const QueryEdge& e : q.Edges()) {
    changed |=
        ForwardPruneEdge(ctx, e, &(*fb)[e.from], (*fb)[e.to], opts, stats);
  }
  return changed;
}

bool BackwardSweep(const MatchContext& ctx, const PatternQuery& q,
                   CandidateSets* fb, const SimOptions& opts,
                   SimStats* stats) {
  bool changed = false;
  for (const QueryEdge& e : q.Edges()) {
    changed |=
        BackwardPruneEdge(ctx, e, (*fb)[e.from], &(*fb)[e.to], opts, stats);
  }
  return changed;
}

}  // namespace

CandidateSets FBSimBas(const MatchContext& ctx, const PatternQuery& q,
                       CandidateSets seed, const SimOptions& opts,
                       SimStats* stats) {
  CandidateSets fb = std::move(seed);
  int pass = 0;
  bool changed = true;
  while (changed && (opts.max_passes == 0 || pass < opts.max_passes)) {
    ++pass;
    changed = ForwardSweep(ctx, q, &fb, opts, stats);
    changed |= BackwardSweep(ctx, q, &fb, opts, stats);
  }
  if (stats != nullptr) stats->passes = pass;
  return fb;
}

CandidateSets ForwardSimulation(const MatchContext& ctx, const PatternQuery& q,
                                const SimOptions& opts) {
  CandidateSets fb = InitialMatchSets(ctx.graph(), q);
  int pass = 0;
  while (ForwardSweep(ctx, q, &fb, opts, nullptr)) {
    if (opts.max_passes != 0 && ++pass >= opts.max_passes) break;
  }
  return fb;
}

CandidateSets BackwardSimulation(const MatchContext& ctx,
                                 const PatternQuery& q,
                                 const SimOptions& opts) {
  CandidateSets fb = InitialMatchSets(ctx.graph(), q);
  int pass = 0;
  while (BackwardSweep(ctx, q, &fb, opts, nullptr)) {
    if (opts.max_passes != 0 && ++pass >= opts.max_passes) break;
  }
  return fb;
}

}  // namespace rigpm
