#include "rig/rig_builder.h"

namespace rigpm {

namespace {

// Expands one query edge (Procedure expand): connects every vp in cos(p) to
// its partners in cos(q).
void ExpandEdge(const MatchContext& ctx, const PatternQuery& q, QueryEdgeId e,
                Rig* rig, RigBuildStats* stats) {
  const QueryEdge& edge = q.Edge(e);
  const Graph& g = ctx.graph();
  const Bitmap& src = rig->Cos(edge.from);
  const Bitmap& dst = rig->Cos(edge.to);
  if (src.Empty() || dst.Empty()) return;

  if (edge.from == edge.to) {
    // A loop: ExpandRig kept in cos(p) only the nodes it holds on.
    src.ForEach([&](NodeId v) { rig->AddEdge(e, v, v); });
    return;
  }
  if (edge.kind == EdgeKind::kChild) {
    // Direct connectivity, adjf(vp) ∩ cos(q) per source node (Section
    // 4.5): walk vp's sorted row and keep the nodes of cos(q).
    src.ForEach([&](NodeId vp) {
      if (stats != nullptr) stats->expand_pair_checks += g.OutDegree(vp);
      for (NodeId vq : g.OutNeighbors(vp)) {
        if (dst.Contains(vq)) rig->AddEdge(e, vp, vq);
      }
    });
    return;
  }

  // Reachability edge: probe every pair through the reachability index
  // (or the hop-limited BFS), both sides in ascending id order.
  src.ForEach([&](NodeId vp) {
    dst.ForEach([&](NodeId vq) {
      if (stats != nullptr) ++stats->expand_pair_checks;
      bool reaches = (edge.max_hops > 0)
                         ? BoundedReaches(g, vp, vq, edge.max_hops)
                         : ctx.reach().Reaches(vp, vq);
      if (reaches) rig->AddEdge(e, vp, vq);
    });
  });
}

}  // namespace

Rig ExpandRig(const MatchContext& ctx, const PatternQuery& q,
              CandidateSets cos, RigBuildStats* stats) {
  // A loop (p, p) pairs each node with itself only, so cos(p) keeps the v
  // with (v, v) matching it.
  for (const QueryEdge& edge : q.Edges()) {
    if (edge.from != edge.to) continue;
    std::vector<NodeId> kept;
    cos[edge.from].ForEach([&](NodeId v) {
      if (stats != nullptr) ++stats->expand_pair_checks;
      if (ctx.EdgePairMatch(edge, v, v)) kept.push_back(v);
    });
    cos[edge.from] = Bitmap::FromSorted(kept);
  }
  Rig rig(q, std::move(cos));

  // Expansion is skipped entirely when some cos(q) is empty: the answer is
  // empty (early termination, Section 4.3).
  if (!rig.AnyEmpty()) {
    for (QueryEdgeId e = 0; e < q.NumEdges(); ++e) {
      ExpandEdge(ctx, q, e, &rig, stats);
    }
  }
  return rig;
}

}  // namespace rigpm
