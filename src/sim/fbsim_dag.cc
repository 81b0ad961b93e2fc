#include "sim/fbsim_dag.h"

#include <utility>

namespace rigpm {

bool FBSimDagPasses(const MatchContext& ctx, const PatternQuery& q,
                    std::span<const QueryNodeId> topo_order,
                    std::span<const QueryEdgeId> dag_edges, CandidateSets* fb,
                    const SimOptions& opts, SimStats* stats) {
  const uint32_t n = q.NumNodes();
  // Per-node incident DAG edges (restricted to the given subset).
  std::vector<std::vector<QueryEdgeId>> out_edges(n), in_edges(n);
  for (QueryEdgeId e : dag_edges) {
    out_edges[q.Edge(e).from].push_back(e);
    in_edges[q.Edge(e).to].push_back(e);
  }

  // Change flags (Section 4.5): an edge check can be skipped when the
  // candidate set it reads (the partner side) has not changed since the
  // previous pass — the surviving nodes then keep their witnesses.
  std::vector<uint8_t> changed_prev(n, 1);
  bool changed_overall = false;
  bool changed = true;
  int pass = 0;
  while (changed && (opts.max_passes == 0 || pass < opts.max_passes)) {
    ++pass;
    changed = false;
    std::vector<uint8_t> changed_now(n, 0);

    // forwardSim: bottom-up traversal, check outgoing edges of each node.
    for (auto it = topo_order.rbegin(); it != topo_order.rend(); ++it) {
      QueryNodeId v = *it;
      for (QueryEdgeId e : out_edges[v]) {
        const QueryEdge& edge = q.Edge(e);
        bool relevant = !opts.use_change_flags || changed_prev[edge.to] ||
                        changed_now[edge.to];
        if (!relevant) continue;
        if (ForwardPruneEdge(ctx, edge, &(*fb)[edge.from], (*fb)[edge.to],
                             opts, stats)) {
          changed_now[edge.from] = 1;
          changed = true;
        }
      }
    }

    // backwardSim: top-down traversal, check incoming edges of each node.
    for (QueryNodeId v : topo_order) {
      for (QueryEdgeId e : in_edges[v]) {
        const QueryEdge& edge = q.Edge(e);
        bool relevant = !opts.use_change_flags || changed_prev[edge.from] ||
                        changed_now[edge.from];
        if (!relevant) continue;
        if (BackwardPruneEdge(ctx, edge, (*fb)[edge.from], &(*fb)[edge.to],
                              opts, stats)) {
          changed_now[edge.to] = 1;
          changed = true;
        }
      }
    }

    changed_prev = std::move(changed_now);
    changed_overall |= changed;
  }
  if (stats != nullptr) stats->passes += pass;
  return changed_overall;
}

}  // namespace rigpm
