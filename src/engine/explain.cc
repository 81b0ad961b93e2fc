#include "engine/explain.h"

#include <sstream>

#include "order/search_order.h"
#include "query/pattern_parser.h"
#include "query/transitive_reduction.h"
#include "sim/prefilter.h"

namespace rigpm {

std::string ExplainQuery(const GmEngine& engine, const PatternQuery& query,
                         const GmOptions& opts) {
  std::ostringstream os;
  const Graph& g = engine.graph();
  os << "== EXPLAIN ==\n";
  os << "data graph : " << g.Summary() << '\n';
  os << "query      : " << PatternToString(query) << '\n';

  // --- Transitive reduction.
  PatternQuery reduced =
      opts.use_transitive_reduction ? QueryTransitiveReduction(query) : query;
  if (reduced.NumEdges() != query.NumEdges()) {
    os << "reduction  : removed "
       << (query.NumEdges() - reduced.NumEdges())
       << " transitive reachability edge(s) -> "
       << PatternToString(reduced) << '\n';
  } else {
    os << "reduction  : query is irreducible\n";
  }

  // --- Filtering cascade: ms -> prefilter -> double simulation. The FB(q)
  // column is the engine's own cos(q): the node sets of the RIG it builds.
  GmResult rig_result;
  Rig rig = engine.BuildRigOnly(query, opts, &rig_result);
  MatchContext ctx(g, engine.reach());
  CandidateSets ms = InitialMatchSets(g, reduced);
  CandidateSets pre =
      opts.use_prefilter ? PreFilter(ctx, reduced, opts.sim) : ms;
  if (opts.use_double_simulation) {
    const SimStats& sim_stats = rig_result.rig_stats.sim;
    os << "simulation : " << SimAlgorithmName(opts.sim_algorithm) << ", "
       << sim_stats.passes << " pass(es), " << sim_stats.pruned_nodes
       << " candidate(s) pruned\n";
  }
  os << "candidates : node  |ms(q)|  |prefiltered|  |FB(q)|\n";
  for (QueryNodeId v = 0; v < reduced.NumNodes(); ++v) {
    os << "             q" << v << " (label " << reduced.Label(v) << ")  "
       << ms[v].Cardinality() << "  " << pre[v].Cardinality() << "  "
       << rig.Cos(v).Cardinality() << '\n';
  }

  // --- RIG.
  os << "RIG        : " << rig.TotalNodes() << " node(s), "
     << rig.TotalEdges() << " edge(s), " << rig.MemoryBytes() << " bytes\n";
  for (QueryEdgeId e = 0; e < reduced.NumEdges(); ++e) {
    const QueryEdge& edge = reduced.Edge(e);
    os << "             cos(q" << edge.from
       << (edge.kind == EdgeKind::kChild ? " -> q" : " => q") << edge.to
       << ") = " << rig.EdgeCount(e) << " pair(s)\n";
  }
  if (rig.AnyEmpty()) {
    os << "result     : answer is provably EMPTY (empty RIG shortcut)\n";
    return os.str();
  }

  // --- Search order.
  OrderStats order_stats;
  std::vector<QueryNodeId> order =
      ComputeSearchOrder(reduced, rig, opts.order, &order_stats);
  os << "order      : " << OrderStrategyName(opts.order) << " [";
  for (size_t i = 0; i < order.size(); ++i) {
    os << (i ? " " : "") << 'q' << order[i];
  }
  os << "]";
  if (order_stats.fell_back_to_jo) os << " (BJ fell back to JO)";
  if (opts.order == OrderStrategy::kBJ) {
    os << " after " << order_stats.plans_considered << " DP expansions";
  }
  os << '\n';
  return os.str();
}

}  // namespace rigpm
