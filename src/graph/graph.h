#ifndef RIGPM_GRAPH_GRAPH_H_
#define RIGPM_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bitmap/bitmap.h"
#include "util/owned_span.h"
#include "util/serde.h"

namespace rigpm {

/// Node identifier in a data graph (dense, 0-based).
using NodeId = uint32_t;
/// Label identifier (dense, 0-based).
using LabelId = uint32_t;

constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// An immutable directed node-labeled data graph in CSR form (Definition 2.1).
///
/// Both directions of the adjacency are materialized as sorted CSR rows:
/// forward lists (`adjf` in the paper) and backward lists (`adjb`). The rows
/// are the graph's only adjacency form; `BuildRIG`, the simulation's child
/// checks and the baseline engines all walk them (Sections 4.5, 5). The
/// bitmaps MJoin intersects are the RIG's, built per query. Label inverted
/// lists `I_a` (Section 2) are bitmaps, one per label, not one per node;
/// like the paper's index they are derived in memory, never persisted.
///
/// Construct via `GraphBuilder` (graph_builder.h) or the generators.
class Graph {
 public:
  Graph() = default;

  /// Builds from a label array and an edge list. Self-loops are kept
  /// (they matter for reachability semantics); duplicate edges are removed.
  static Graph FromEdges(std::vector<LabelId> labels,
                         std::vector<std::pair<NodeId, NodeId>> edges);

  uint32_t NumNodes() const { return static_cast<uint32_t>(labels_.size()); }
  uint64_t NumEdges() const { return fwd_targets_.size(); }
  uint32_t NumLabels() const { return num_labels_; }

  LabelId Label(NodeId v) const { return labels_[v]; }

  uint32_t OutDegree(NodeId v) const {
    return static_cast<uint32_t>(fwd_offsets_[v + 1] - fwd_offsets_[v]);
  }
  uint32_t InDegree(NodeId v) const {
    return static_cast<uint32_t>(bwd_offsets_[v + 1] - bwd_offsets_[v]);
  }

  /// Forward (children) adjacency of `v`, sorted by node id.
  std::span<const NodeId> OutNeighbors(NodeId v) const {
    return {fwd_targets_.data() + fwd_offsets_[v],
            fwd_targets_.data() + fwd_offsets_[v + 1]};
  }
  /// Backward (parents) adjacency of `v`, sorted by node id.
  std::span<const NodeId> InNeighbors(NodeId v) const {
    return {bwd_targets_.data() + bwd_offsets_[v],
            bwd_targets_.data() + bwd_offsets_[v + 1]};
  }

  /// True iff (u, v) is an edge. O(log OutDegree(u)).
  bool HasEdge(NodeId u, NodeId v) const;

  /// Inverted list I_a: all nodes labeled `a`.
  const Bitmap& LabelBitmap(LabelId a) const { return label_bitmaps_[a]; }

  uint32_t LabelCount(LabelId a) const {
    return static_cast<uint32_t>(label_offsets_[a + 1] - label_offsets_[a]);
  }

  /// Size |I_max| of the largest inverted list (complexity analyses, §4.3).
  uint32_t MaxLabelListSize() const;

  double AverageDegree() const {
    return NumNodes() == 0 ? 0.0
                           : static_cast<double>(NumEdges()) / NumNodes();
  }

  /// Human-readable one-line summary (|V|, |E|, |L|, d_avg).
  std::string Summary() const;

  /// Appends a binary image of the graph to `sink` (storage/snapshot.h
  /// frames it into a snapshot file): the labels, both CSR directions and
  /// the label-list offsets, whose NumLabels() + 1 words declare the
  /// alphabet. The label bitmaps are not stored.
  void Serialize(ByteSink& sink) const;

  /// Decodes an image written by Serialize, checks every label and the
  /// label counts against the offsets, and rebuilds the label bitmaps. On
  /// malformed input `src.ok()` turns false and an empty graph is returned.
  /// In zero-copy mode the labels, CSR arrays and label-list offsets borrow
  /// directly from the source's backing storage; the graph retains the
  /// storage ownership token (`src.storage()`), so it stays valid for its
  /// whole lifetime and through moves. Copies deep-copy into private
  /// storage.
  static Graph Deserialize(ByteSource& src);

  /// Heap bytes owned by this graph. Borrowed snapshot-mapping storage is
  /// excluded — it is shared between every process mapping the snapshot —
  /// so an mmap-loaded graph owns only its label bitmaps, about 2 bytes per
  /// node.
  size_t OwnedHeapBytes() const;

  /// Returns a copy with every edge also present in the reverse direction —
  /// the "store each edge in both directions" transformation the paper uses
  /// to compare against engines that treat data graphs as undirected
  /// (RapidMatch, Section 7.5).
  static Graph MakeBidirected(const Graph& g);

 private:
  friend class GraphBuilder;

  // Encodes label_bitmaps_ from labels_ and label_offsets_, which must
  // agree.
  void BuildLabelBitmaps();

  // Owned vectors when built in-process; borrowed views into the snapshot
  // mapping when loaded zero-copy (storage_ keeps the mapping alive).
  OwnedOrBorrowedSpan<LabelId> labels_;
  uint32_t num_labels_ = 0;

  OwnedOrBorrowedSpan<uint64_t> fwd_offsets_;  // size NumNodes()+1
  OwnedOrBorrowedSpan<NodeId> fwd_targets_;
  OwnedOrBorrowedSpan<uint64_t> bwd_offsets_;
  OwnedOrBorrowedSpan<NodeId> bwd_targets_;

  OwnedOrBorrowedSpan<uint64_t> label_offsets_;  // size NumLabels()+1
  std::vector<Bitmap> label_bitmaps_;

  // Ownership token for borrowed storage (null for built graphs): the
  // mapping (a FileBytes) of the snapshot the graph was loaded from.
  std::shared_ptr<const void> storage_;
};

/// The nodes present in every row of `rows` (sorted adjacency rows such as
/// OutNeighbors) and in every bitmap of `sets`, ascending. Walks the
/// shortest row, binary-searching the other rows and probing the bitmaps;
/// with no row it is Bitmap::AndManyInto(sets). DataSearch, the ISO and
/// WCOJ baselines' search, extends a partial match with it.
std::vector<NodeId> IntersectRows(std::span<const std::span<const NodeId>> rows,
                                  std::span<const Bitmap* const> sets);

}  // namespace rigpm

#endif  // RIGPM_GRAPH_GRAPH_H_
