#ifndef RIGPM_GRAPH_SCC_H_
#define RIGPM_GRAPH_SCC_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/owned_span.h"

namespace rigpm {

/// Strongly-connected-component condensation of a data graph.
///
/// Reachability on a general digraph reduces to reachability on its
/// condensation DAG: u ≺ v (path with >= 1 edge, Definition 2.2) iff
///   * Comp(u) != Comp(v) and Comp(u) reaches Comp(v) in the DAG, or
///   * Comp(u) == Comp(v) and the component is cyclic (size > 1 or self-loop).
/// Every reachability index in src/reach is built on this structure.
class Condensation {
 public:
  /// Runs Tarjan's algorithm (iterative, safe for large graphs).
  explicit Condensation(const Graph& g);

  uint32_t NumComponents() const { return num_components_; }

  /// Number of data nodes the condensation was computed over.
  uint32_t NumNodes() const { return static_cast<uint32_t>(component_.size()); }

  /// Component of a data node.
  uint32_t Component(NodeId v) const { return component_[v]; }

  /// True iff the component contains a cycle (size > 1 or a self-loop).
  bool IsCyclic(uint32_t comp) const { return cyclic_[comp] != 0; }

  /// Successor components (deduplicated, sorted) in the condensation DAG.
  /// Component ids are topological: every successor has a larger id.
  std::span<const uint32_t> Successors(uint32_t comp) const {
    return {dag_targets_.data() + dag_offsets_[comp],
            dag_targets_.data() + dag_offsets_[comp + 1]};
  }

  uint64_t NumDagEdges() const { return dag_targets_.size(); }

  /// Appends a binary image to `sink` (see storage/snapshot.h); restored by
  /// Deserialize without re-running Tarjan.
  void Serialize(ByteSink& sink) const;

  /// Decodes an image written by Serialize. On malformed input — including
  /// a DAG edge that does not go to a larger component id — `src.ok()`
  /// turns false and an empty condensation is returned.
  static Condensation Deserialize(ByteSource& src);

 private:
  Condensation() = default;  // only Deserialize builds without a graph

  // Owned when built by Tarjan; borrowed views into the snapshot mapping
  // when loaded zero-copy (storage_ keeps the mapping alive).
  uint32_t num_components_ = 0;
  OwnedOrBorrowedSpan<uint32_t> component_;
  OwnedOrBorrowedSpan<uint8_t> cyclic_;
  OwnedOrBorrowedSpan<uint64_t> dag_offsets_;
  OwnedOrBorrowedSpan<uint32_t> dag_targets_;
  std::shared_ptr<const void> storage_;
};

}  // namespace rigpm

#endif  // RIGPM_GRAPH_SCC_H_
