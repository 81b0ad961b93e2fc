#ifndef RIGPM_RIG_RIG_H_
#define RIGPM_RIG_RIG_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "bitmap/bitmap.h"
#include "query/pattern_query.h"

namespace rigpm {

/// Runtime Index Graph (Definition 4.1): a k-partite graph with one
/// independent node set cos(q) per query node q and, for every query edge
/// e = (p, q), directed edges from cos(p) to cos(q) — the candidate
/// occurrence set cos(e).
///
/// Adjacency is stored per query edge as compressed bitmaps keyed by data
/// node: `Forward(e, vp)` is the set of vq ∈ cos(q) with (vp, vq) ∈ cos(e),
/// and `Backward(e, vq)` the reverse. MJoin's multiway intersections operate
/// directly on these bitmaps (Section 5).
///
/// Invariant (Proposition 4.1): for every homomorphism h of Q and every
/// query edge (p, q), the pair (h(p), h(q)) is an edge of the RIG, i.e. the
/// RIG losslessly encodes the query answer search space.
///
/// Invariant (rows within cos): every edge of e = (p, q) joins cos(p) to
/// cos(q), because expansion only pairs nodes of cos(p) x cos(q) (a loop
/// (p, p) only the diagonal pairs (v, v) of cos(p)). So
/// Forward(e, vp) ⊆ cos(q) and Backward(e, vq) ⊆ cos(p), and a row with
/// |cos(q)| (resp. |cos(p)|) members is that whole set. MJoin relies on
/// this to leave full rows out of its intersections and to use a row in
/// place of cos(q_i).
class Rig {
 public:
  /// Creates an edgeless RIG with the given candidate node sets (one per
  /// query node of `q`).
  Rig(const PatternQuery& q, std::vector<Bitmap> node_sets);

  uint32_t NumQueryNodes() const {
    return static_cast<uint32_t>(cos_.size());
  }

  /// cos(q): candidate occurrence set of query node `q`.
  const Bitmap& Cos(QueryNodeId q) const { return cos_[q]; }

  /// Adds the RIG edge (vp, vq) for query edge index `e` = (p, q); `vp`
  /// must be in cos(p) and `vq` in cos(q).
  void AddEdge(QueryEdgeId e, NodeId vp, NodeId vq);

  /// Forward adjacency of `vp` along query edge `e`; empty bitmap when none.
  const Bitmap& Forward(QueryEdgeId e, NodeId vp) const;
  /// Backward adjacency of `vq` along query edge `e`.
  const Bitmap& Backward(QueryEdgeId e, NodeId vq) const;

  /// |cos(e)|: number of RIG edges for query edge `e`.
  uint64_t EdgeCount(QueryEdgeId e) const { return edge_counts_[e]; }

  /// Total number of RIG nodes (sum of |cos(q)|).
  uint64_t TotalNodes() const;
  /// Total number of RIG edges (sum over query edges of |cos(e)|).
  uint64_t TotalEdges() const;
  /// Size = nodes + edges, the measure Fig. 13 reports.
  uint64_t Size() const { return TotalNodes() + TotalEdges(); }

  /// True iff some candidate set is empty — the query answer is then empty
  /// and evaluation can stop early (Section 4.3's early-termination win).
  bool AnyEmpty() const;

  /// Approximate heap footprint.
  size_t MemoryBytes() const;

  std::string Summary() const;

 private:
  using AdjacencyMap = std::unordered_map<NodeId, Bitmap>;

  std::vector<Bitmap> cos_;                  // per query node
  std::vector<AdjacencyMap> forward_;        // per query edge
  std::vector<AdjacencyMap> backward_;       // per query edge
  std::vector<uint64_t> edge_counts_;        // per query edge
  Bitmap empty_;                             // returned for absent keys
};

}  // namespace rigpm

#endif  // RIGPM_RIG_RIG_H_
