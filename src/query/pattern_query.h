#ifndef RIGPM_QUERY_PATTERN_QUERY_H_
#define RIGPM_QUERY_PATTERN_QUERY_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace rigpm {

/// Node index inside a pattern query (dense, 0-based).
using QueryNodeId = uint32_t;
/// Edge index inside a pattern query.
using QueryEdgeId = uint32_t;

/// The two edge types of a hybrid pattern (Definition 2.4): a child edge
/// maps to a single data edge (edge-to-edge); a descendant edge maps to a
/// path of one or more data edges (edge-to-path).
enum class EdgeKind : uint8_t {
  kChild,       // direct structural relationship
  kDescendant,  // reachability relationship
};

struct QueryEdge {
  QueryNodeId from = 0;
  QueryNodeId to = 0;
  EdgeKind kind = EdgeKind::kChild;

  /// For descendant edges only: maximum path length in the data graph
  /// (the *bounded* graph patterns of Zou et al., VLDB J. 2012, which the
  /// paper discusses as the R-Join application). 0 means unbounded — the
  /// plain reachability semantics of Definition 2.5. A bound of 1 is
  /// equivalent to a child edge. Ignored for child edges.
  uint32_t max_hops = 0;

  bool operator==(const QueryEdge&) const = default;
};

/// A connected directed node-labeled hybrid graph pattern (Definition 2.4).
///
/// Immutable after construction. Besides node labels and typed edges, the
/// class precomputes the per-node incident-edge lists that every matching
/// algorithm iterates (children(q) / parents(q) in the paper's pseudocode).
class PatternQuery {
 public:
  PatternQuery() = default;

  /// Builds a query. Duplicate edges (same endpoints and kind) are removed;
  /// a child and a descendant edge between the same endpoints may coexist
  /// (the descendant one is then transitively redundant, see Section 3).
  static PatternQuery FromParts(std::vector<LabelId> labels,
                                std::vector<QueryEdge> edges);

  uint32_t NumNodes() const { return static_cast<uint32_t>(labels_.size()); }
  uint32_t NumEdges() const { return static_cast<uint32_t>(edges_.size()); }

  LabelId Label(QueryNodeId q) const { return labels_[q]; }
  const std::vector<LabelId>& Labels() const { return labels_; }

  const QueryEdge& Edge(QueryEdgeId e) const { return edges_[e]; }
  const std::vector<QueryEdge>& Edges() const { return edges_; }

  /// Indices of edges leaving `q` (q is the tail).
  std::span<const QueryEdgeId> OutEdges(QueryNodeId q) const {
    return {out_edges_.data() + out_offsets_[q],
            out_edges_.data() + out_offsets_[q + 1]};
  }
  /// Indices of edges entering `q` (q is the head).
  std::span<const QueryEdgeId> InEdges(QueryNodeId q) const {
    return {in_edges_.data() + in_offsets_[q],
            in_edges_.data() + in_offsets_[q + 1]};
  }

  uint32_t OutDegree(QueryNodeId q) const {
    return static_cast<uint32_t>(out_offsets_[q + 1] - out_offsets_[q]);
  }
  uint32_t InDegree(QueryNodeId q) const {
    return static_cast<uint32_t>(in_offsets_[q + 1] - in_offsets_[q]);
  }
  uint32_t Degree(QueryNodeId q) const { return OutDegree(q) + InDegree(q); }

  uint32_t NumChildEdges() const { return num_child_edges_; }
  uint32_t NumDescendantEdges() const {
    return NumEdges() - num_child_edges_;
  }

  /// True iff there is a directed edge (p, q) of any kind.
  bool HasEdgeBetween(QueryNodeId p, QueryNodeId q) const;

  /// True iff the underlying *undirected* graph is connected (queries are
  /// required to be connected, Definition 2.4).
  bool IsConnected() const;

  /// True iff the *directed* query has no cycle. When true and `topo_order`
  /// is non-null, it receives the nodes in a topological order.
  bool IsDag(std::vector<QueryNodeId>* topo_order = nullptr) const;

  /// True iff the underlying undirected graph is acyclic ("acyclic pattern"
  /// class of Section 7.1): connected + exactly n-1 undirected edges between
  /// distinct endpoint pairs.
  bool IsUndirectedAcyclic() const;

  /// Canonical byte encoding of the pattern, invariant under the node
  /// renumbering that a permuted declaration order induces: two patterns
  /// that are isomorphic as labeled typed digraphs produce identical bytes
  /// (WL color refinement picks the node order; ties are broken by trying
  /// every within-class permutation and keeping the lexicographically
  /// smallest encoding). Distinct patterns always encode differently — the
  /// encoding is a faithful serialization. For pathological patterns whose
  /// refined color classes admit more than kMaxCanonicalPerms orderings
  /// the tie-break falls back to the construction order, so such twins may
  /// encode apart. perfbench dedupes its generated key sets with it and
  /// times it as `query.canon`; the daemon keys its result cache on request
  /// bytes instead.
  std::vector<uint8_t> CanonicalEncoding() const;

  /// Tie-break budget of CanonicalEncoding(): the maximum number of
  /// within-color-class orderings tried before falling back (8! covers any
  /// realistic pattern; the search only runs when refinement leaves
  /// structurally indistinguishable nodes).
  static constexpr uint64_t kMaxCanonicalPerms = 40320;

  /// One-line human-readable description for logs and bench output.
  std::string Summary() const;

  bool operator==(const PatternQuery& other) const {
    return labels_ == other.labels_ && edges_ == other.edges_;
  }

 private:
  void BuildIncidence();

  std::vector<LabelId> labels_;
  std::vector<QueryEdge> edges_;
  uint32_t num_child_edges_ = 0;

  std::vector<uint32_t> out_offsets_;
  std::vector<QueryEdgeId> out_edges_;
  std::vector<uint32_t> in_offsets_;
  std::vector<QueryEdgeId> in_edges_;
};

}  // namespace rigpm

#endif  // RIGPM_QUERY_PATTERN_QUERY_H_
