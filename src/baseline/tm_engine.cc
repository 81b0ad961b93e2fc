#include "baseline/tm_engine.h"

#include <vector>

#include "order/search_order.h"
#include "rig/rig_builder.h"
#include "sim/fbsim_dag.h"
#include "sim/prefilter.h"

namespace rigpm {

namespace {

// BFS spanning tree over the undirected view; returns original edge indices.
void SpanningTree(const PatternQuery& q, std::vector<QueryEdgeId>* tree,
                  std::vector<QueryEdgeId>* non_tree) {
  const uint32_t n = q.NumNodes();
  std::vector<uint8_t> seen(n, 0);
  std::vector<uint8_t> is_tree(q.NumEdges(), 0);
  std::vector<QueryNodeId> frontier = {0};
  seen[0] = 1;
  for (size_t head = 0; head < frontier.size(); ++head) {
    QueryNodeId v = frontier[head];
    for (QueryEdgeId e : q.OutEdges(v)) {
      QueryNodeId w = q.Edge(e).to;
      if (!seen[w]) {
        seen[w] = 1;
        is_tree[e] = 1;
        frontier.push_back(w);
      }
    }
    for (QueryEdgeId e : q.InEdges(v)) {
      QueryNodeId w = q.Edge(e).from;
      if (!seen[w]) {
        seen[w] = 1;
        is_tree[e] = 1;
        frontier.push_back(w);
      }
    }
  }
  for (QueryEdgeId e = 0; e < q.NumEdges(); ++e) {
    (is_tree[e] ? *tree : *non_tree).push_back(e);
  }
}

}  // namespace

BaselineResult TmEvaluate(const MatchContext& ctx, const PatternQuery& q,
                          const BaselineOptions& opts,
                          const OccurrenceSink& sink) {
  BaselineResult result;
  RunClock clock(opts.timeout_ms);

  // --- Spanning tree + residual edges of Q.
  std::vector<QueryEdgeId> tree_edges, non_tree_edges;
  SpanningTree(q, &tree_edges, &non_tree_edges);
  std::vector<QueryEdge> tree_query_edges;
  tree_query_edges.reserve(tree_edges.size());
  for (QueryEdgeId e : tree_edges) tree_query_edges.push_back(q.Edge(e));
  PatternQuery tree_q = PatternQuery::FromParts(q.Labels(), tree_query_edges);

  // --- Tree evaluation after [59]: candidates are filtered with a tree
  // double simulation (one bottom-up + one top-down pass suffices on trees),
  // then the answer graph (a tree-restricted RIG) is built and enumerated.
  CandidateSets cos = PreFilter(ctx, q, SimOptions{});
  clock.EndPhase("Prefilter", &result);
  // Exact fixpoint (default SimOptions): trees converge in one pass.
  cos = ComputeDoubleSimulation(ctx, tree_q, std::move(cos),
                                SimAlgorithm::kDagMap);
  clock.EndPhase("Simulate", &result);
  Rig answer_graph = ExpandRig(ctx, tree_q, std::move(cos));
  clock.EndPhase("BuildRig", &result);
  result.counters = {{"rig_nodes", answer_graph.TotalNodes()},
                     {"rig_edges", answer_graph.TotalEdges()}};
  if (clock.Expired()) {
    result.status = EvalStatus::kTimeout;
    return result;
  }

  // --- Enumerate tree solutions; filter each against the non-tree edges.
  std::vector<QueryNodeId> order =
      ComputeSearchOrder(tree_q, answer_graph, OrderStrategy::kJO);
  uint64_t tree_solutions = 0;
  MJoin(tree_q, answer_graph, order, [&](const Occurrence& t) {
    if (result.num_occurrences == opts.limit) return false;  // a limit of 0
    if ((++tree_solutions & 0x3FF) == 0 && clock.Expired()) {
      result.status = EvalStatus::kTimeout;
      return false;
    }
    for (QueryEdgeId e : non_tree_edges) {
      const QueryEdge& edge = q.Edge(e);
      if (!ctx.EdgePairMatch(edge, t[edge.from], t[edge.to])) return true;
    }
    ++result.num_occurrences;
    if (sink && !sink(t)) return false;
    return result.num_occurrences < opts.limit;
  });
  clock.EndPhase("Enumerate", &result);
  result.counters.push_back({"tree_solutions", tree_solutions});
  return result;
}

}  // namespace rigpm
