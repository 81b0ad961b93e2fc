#ifndef RIGPM_REACH_REACHABILITY_H_
#define RIGPM_REACH_REACHABILITY_H_

#include <cstddef>
#include <memory>
#include <string>

#include "graph/graph.h"
#include "graph/scc.h"

namespace rigpm {

/// Which reachability indexing scheme to build. The paper's implementation
/// uses BFL (Bloom Filter Labeling, Su et al., TKDE 2017); the others serve
/// as baselines for Fig. 18(a) (index construction cost) and as oracles in
/// the test suite.
enum class ReachKind {
  kBfs,                // no index: per-query pruned BFS over the condensation
  kTransitiveClosure,  // materialized reachability (fast query, slow build)
  kBfl,                // Bloom Filter Labeling + interval cuts + guided DFS
};

const char* ReachKindName(ReachKind kind);

/// Answers node-reachability queries u ≺ v: "is there a path of one or more
/// edges from u to v?" (Definition 2.2). Implementations are exact and safe
/// to query from concurrent workers: the fast paths are read-only, and the
/// implementations that fall back to a search serialize their reusable
/// scratch on an internal mutex.
///
/// Every implementation is built over the SCC condensation of the graph and
/// exposes it, so the batch descendant-edge prunes of sim/match_sets.h
/// reuse it instead of running Tarjan again.
class ReachabilityIndex {
 public:
  virtual ~ReachabilityIndex() = default;

  /// True iff u reaches v through at least one edge.
  virtual bool Reaches(NodeId u, NodeId v) const = 0;

  /// The condensation the index was built over (read-only; component ids
  /// are topological).
  virtual const Condensation& condensation() const = 0;

  virtual std::string Name() const = 0;

  /// Approximate heap footprint of the index payload.
  virtual size_t MemoryBytes() const = 0;
};

/// Builds an index of the requested kind over `g`.
std::unique_ptr<ReachabilityIndex> BuildReachabilityIndex(const Graph& g,
                                                          ReachKind kind);

}  // namespace rigpm

#endif  // RIGPM_REACH_REACHABILITY_H_
