#ifndef RIGPM_SIM_MATCH_SETS_H_
#define RIGPM_SIM_MATCH_SETS_H_

#include <cstdint>
#include <vector>

#include "bitmap/bitmap.h"
#include "graph/graph.h"
#include "query/pattern_query.h"
#include "reach/reachability.h"

namespace rigpm {

/// How child-edge (direct connectivity) constraints are checked during
/// simulation and RIG construction (Section 4.5, Fig. 12a):
///  * kBinSearch — binary-search each candidate id in the node's sorted
///                 adjacency row,
///  * kBitIter   — walk the node's sorted adjacency row and probe the
///                 candidate bitmap, stopping at the first hit,
///  * kBitBat    — batch: one pass marks the CSR neighbours of the fixed
///                 side in a |V|-entry array and drops every unmarked
///                 candidate of the pruned side at once.
enum class ChildCheckMode : uint8_t { kBinSearch, kBitIter, kBitBat };

const char* ChildCheckModeName(ChildCheckMode m);

/// Tuning knobs for the double-simulation computation.
struct SimOptions {
  /// 0 = iterate to the exact fixpoint. N > 0 stops after N passes — the
  /// approximation the paper applies (N = 3), which keeps FB a superset of
  /// the true double simulation and therefore still a sound RIG node set.
  int max_passes = 0;

  ChildCheckMode child_check = ChildCheckMode::kBitBat;

  /// Skip re-checking query nodes none of whose neighbors changed in the
  /// previous pass ("speedup convergence" flags of Section 4.5).
  bool use_change_flags = true;

  /// Batch descendant-edge pruning instead of per-pair reachability probes.
  /// An unbounded edge is pruned by one sweep over the SCC condensation of
  /// the reachability index, a bounded one (max_hops > 0) by one
  /// hop-limited multi-source BFS. Exact either way; batch is the tuned
  /// default (it plays the role kBitBat plays for child edges).
  bool batch_reachability = true;
};

/// Counters the experiments report.
struct SimStats {
  int passes = 0;
  uint64_t pair_checks = 0;   // reachability/adjacency probes issued
  uint64_t pruned_nodes = 0;  // candidate deletions across all passes

  void Reset() { *this = SimStats(); }
};

/// A candidate relation: one bitmap of data nodes per query node. Used for
/// ms(q) (match sets), FB(q) (double simulation) and cos(q) (RIG node sets).
/// The bitmaps are compressed (bitmap/bitmap.h): each 64K chunk is an array
/// or a bitset by its cardinality. Every prune walks a set with ForEach and
/// rebuilds it from its survivors with FromSorted.
using CandidateSets = std::vector<Bitmap>;

/// True iff a path of 1..max_hops edges leads from u to v (depth-limited
/// BFS; used by bounded descendant edges). Declared ahead of MatchContext,
/// which inlines it.
bool BoundedReaches(const Graph& g, NodeId u, NodeId v, uint32_t max_hops);

/// Binds the data graph with a reachability index; every simulation/RIG
/// routine works through this context.
class MatchContext {
 public:
  MatchContext(const Graph& g, const ReachabilityIndex& reach)
      : graph_(g), reach_(reach) {}

  const Graph& graph() const { return graph_; }
  const ReachabilityIndex& reach() const { return reach_; }

  /// Pair-level query-edge match test (Section 4.1): labels are assumed
  /// already satisfied; checks the structural part only. Bounded descendant
  /// edges (max_hops > 0) are answered with a depth-limited BFS.
  bool EdgePairMatch(const QueryEdge& e, NodeId u, NodeId v) const {
    if (e.kind == EdgeKind::kChild) return graph_.HasEdge(u, v);
    if (e.max_hops > 0) return BoundedReaches(graph_, u, v, e.max_hops);
    return reach_.Reaches(u, v);
  }

 private:
  const Graph& graph_;
  const ReachabilityIndex& reach_;
};

/// ms(q) for every query node: the label inverted lists (Section 4.1).
CandidateSets InitialMatchSets(const Graph& g, const PatternQuery& q);

/// Prunes `src` (candidates of e.from) to the nodes that have at least one
/// forward match in `dst` (candidates of e.to) along edge `e`. Returns true
/// iff `src` changed. This is the single-edge building block all FB
/// algorithms share. The batch modes (kBitBat, batch_reachability) allocate
/// their scratch per call — |V| marks for a child edge, 2 x |C| bytes for
/// an unbounded descendant edge — so a MatchContext stays shareable.
bool ForwardPruneEdge(const MatchContext& ctx, const QueryEdge& e, Bitmap* src,
                      const Bitmap& dst, const SimOptions& opts,
                      SimStats* stats);

/// Symmetric: prunes `dst` to nodes with a backward match in `src`.
bool BackwardPruneEdge(const MatchContext& ctx, const QueryEdge& e,
                       const Bitmap& src, Bitmap* dst, const SimOptions& opts,
                       SimStats* stats);

/// Set of nodes that can reach some node of `targets` via >= 1 edge
/// (reverse multi-source BFS over the data graph). The batch prune of a
/// bounded descendant edge uses it; for unbounded edges it is the tests'
/// oracle for the condensation sweep. `max_hops` = 0 means unbounded;
/// otherwise paths of at most that length.
Bitmap NodesReaching(const Graph& g, const Bitmap& targets,
                     uint32_t max_hops = 0);

/// Set of nodes reachable from some node of `sources` via >= 1 edge.
Bitmap NodesReachableFrom(const Graph& g, const Bitmap& sources,
                          uint32_t max_hops = 0);

}  // namespace rigpm

#endif  // RIGPM_SIM_MATCH_SETS_H_
