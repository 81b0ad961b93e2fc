#include "baseline/edge_relations.h"

namespace rigpm {

EvalStatus BuildEdgeRelations(const MatchContext& ctx, const PatternQuery& q,
                              const CandidateSets& candidates,
                              uint64_t max_total_pairs,
                              std::vector<EdgeRelation>* out) {
  const Graph& g = ctx.graph();
  out->clear();
  out->reserve(q.NumEdges());
  uint64_t total = 0;
  for (QueryEdgeId e = 0; e < q.NumEdges(); ++e) {
    const QueryEdge& edge = q.Edge(e);
    EdgeRelation rel;
    rel.edge = e;
    const Bitmap& src = candidates[edge.from];
    const Bitmap& dst = candidates[edge.to];
    bool overflow = false;
    if (edge.kind == EdgeKind::kChild) {
      src.ForEach([&](NodeId u) {
        if (overflow) return;
        for (NodeId v : g.OutNeighbors(u)) {
          if (dst.Contains(v)) rel.pairs.emplace_back(u, v);
        }
        if (total + rel.pairs.size() > max_total_pairs) overflow = true;
      });
    } else {
      std::vector<NodeId> dst_nodes = dst.ToVector();
      src.ForEach([&](NodeId u) {
        if (overflow) return;
        for (NodeId v : dst_nodes) {
          if (ctx.EdgePairMatch(edge, u, v)) rel.pairs.emplace_back(u, v);
        }
        if (total + rel.pairs.size() > max_total_pairs) overflow = true;
      });
    }
    if (overflow) return EvalStatus::kOutOfMemory;
    total += rel.pairs.size();
    out->push_back(std::move(rel));
  }
  return EvalStatus::kOk;
}

}  // namespace rigpm
