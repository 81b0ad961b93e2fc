#include "baseline/tm_engine.h"

#include <chrono>
#include <vector>

#include "order/search_order.h"
#include "rig/rig_builder.h"
#include "sim/fbsim_dag.h"
#include "sim/prefilter.h"

namespace rigpm {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

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

TmResult TmEvaluate(const MatchContext& ctx, const PatternQuery& q,
                    const TmOptions& opts, const OccurrenceSink& sink) {
  TmResult result;
  auto start = Clock::now();
  auto timed_out = [&]() {
    return opts.timeout_ms > 0.0 && MsSince(start) > opts.timeout_ms;
  };

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
  auto t0 = Clock::now();
  CandidateSets seed = opts.use_prefilter
                           ? PreFilter(ctx, q, SimOptions{})
                           : InitialMatchSets(ctx.graph(), q);
  // Exact fixpoint (default SimOptions): trees converge in one pass.
  CandidateSets cos = ComputeDoubleSimulation(ctx, tree_q, std::move(seed),
                                              SimAlgorithm::kDagMap);
  Rig answer_graph = ExpandRig(ctx, tree_q, std::move(cos));
  result.aux_graph_nodes = answer_graph.TotalNodes();
  result.aux_graph_edges = answer_graph.TotalEdges();
  result.build_ms = MsSince(t0);
  if (timed_out()) {
    result.status = EvalStatus::kTimeout;
    return result;
  }

  // --- Enumerate tree solutions; filter each against the non-tree edges.
  auto t1 = Clock::now();
  std::vector<QueryNodeId> order =
      ComputeSearchOrder(tree_q, answer_graph, OrderStrategy::kJO);
  bool timeout_hit = false;
  uint64_t check_counter = 0;
  MJoinOptions mopts;  // no limit on *tree* tuples; the answer cap applies
  MJoin(
      tree_q, answer_graph, order,
      [&](const Occurrence& t) {
        ++result.tree_solutions;
        if (((++check_counter) & 0x3FF) == 0 && timed_out()) {
          timeout_hit = true;
          return false;
        }
        for (QueryEdgeId e : non_tree_edges) {
          const QueryEdge& edge = q.Edge(e);
          if (!ctx.EdgePairMatch(edge, t[edge.from], t[edge.to])) return true;
        }
        ++result.num_occurrences;
        if (sink && !sink(t)) return false;
        return result.num_occurrences < opts.limit;
      },
      mopts);
  result.enumerate_ms = MsSince(t1);
  if (timeout_hit) result.status = EvalStatus::kTimeout;
  return result;
}

}  // namespace rigpm
