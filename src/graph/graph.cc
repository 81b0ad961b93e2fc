#include "graph/graph.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace rigpm {

Graph Graph::FromEdges(std::vector<LabelId> labels,
                       std::vector<std::pair<NodeId, NodeId>> edges) {
  Graph g;
  g.labels_ = std::move(labels);
  const uint32_t n = g.NumNodes();
  g.num_labels_ = 0;
  for (LabelId l : g.labels_) g.num_labels_ = std::max(g.num_labels_, l + 1);

  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  std::vector<uint64_t>& fwd_offsets = g.fwd_offsets_.Mutable();
  std::vector<uint64_t>& bwd_offsets = g.bwd_offsets_.Mutable();
  std::vector<NodeId>& fwd_targets = g.fwd_targets_.Mutable();
  std::vector<NodeId>& bwd_targets = g.bwd_targets_.Mutable();
  fwd_offsets.assign(n + 1, 0);
  bwd_offsets.assign(n + 1, 0);
  for (const auto& [u, v] : edges) {
    assert(u < n && v < n);
    ++fwd_offsets[u + 1];
    ++bwd_offsets[v + 1];
  }
  for (uint32_t i = 0; i < n; ++i) {
    fwd_offsets[i + 1] += fwd_offsets[i];
    bwd_offsets[i + 1] += bwd_offsets[i];
  }
  fwd_targets.resize(edges.size());
  bwd_targets.resize(edges.size());
  std::vector<uint64_t> fpos(fwd_offsets.begin(), fwd_offsets.end() - 1);
  std::vector<uint64_t> bpos(bwd_offsets.begin(), bwd_offsets.end() - 1);
  for (const auto& [u, v] : edges) {
    fwd_targets[fpos[u]++] = v;
    bwd_targets[bpos[v]++] = u;
  }
  // Forward targets are already sorted per source (edge list was sorted);
  // backward targets need a per-node sort.
  for (uint32_t v = 0; v < n; ++v) {
    std::sort(bwd_targets.begin() + static_cast<ptrdiff_t>(bwd_offsets[v]),
              bwd_targets.begin() + static_cast<ptrdiff_t>(bwd_offsets[v + 1]));
  }

  g.BuildLabelLists();
  return g;
}

void Graph::BuildLabelLists() {
  const uint32_t n = NumNodes();
  std::vector<uint64_t>& label_offsets = label_offsets_.Mutable();
  std::vector<NodeId>& label_nodes = label_nodes_.Mutable();
  label_offsets.assign(num_labels_ + 1, 0);
  for (LabelId l : labels_) ++label_offsets[l + 1];
  for (uint32_t i = 0; i < num_labels_; ++i) {
    label_offsets[i + 1] += label_offsets[i];
  }
  label_nodes.resize(n);
  std::vector<uint64_t> pos(label_offsets.begin(), label_offsets.end() - 1);
  for (NodeId v = 0; v < n; ++v) label_nodes[pos[labels_[v]]++] = v;

  label_bitmaps_.resize(num_labels_);
  for (LabelId a = 0; a < num_labels_; ++a) {
    label_bitmaps_[a] = Bitmap::FromSorted(LabelNodes(a));
  }
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  auto neigh = OutNeighbors(u);
  return std::binary_search(neigh.begin(), neigh.end(), v);
}

uint32_t Graph::MaxLabelListSize() const {
  uint32_t best = 0;
  for (LabelId a = 0; a < num_labels_; ++a) {
    best = std::max(best, LabelCount(a));
  }
  return best;
}

void Graph::Serialize(ByteSink& sink) const {
  sink.WriteU32(num_labels_);
  sink.WriteSpan<LabelId>(labels_);
  sink.WriteSpan<uint64_t>(fwd_offsets_);
  sink.WriteSpan<NodeId>(fwd_targets_);
  sink.WriteSpan<uint64_t>(bwd_offsets_);
  sink.WriteSpan<NodeId>(bwd_targets_);
  sink.WriteSpan<uint64_t>(label_offsets_);
  sink.WriteSpan<NodeId>(label_nodes_);
  for (const Bitmap& b : label_bitmaps_) b.Serialize(sink);
}

Graph Graph::Deserialize(ByteSource& src) {
  Graph g;
  g.storage_ = src.storage();  // keeps a zero-copy mapping alive
  g.num_labels_ = src.ReadU32();
  src.ReadSpan(&g.labels_);
  src.ReadSpan(&g.fwd_offsets_);
  src.ReadSpan(&g.fwd_targets_);
  src.ReadSpan(&g.bwd_offsets_);
  src.ReadSpan(&g.bwd_targets_);
  src.ReadSpan(&g.label_offsets_);
  src.ReadSpan(&g.label_nodes_);
  if (!src.ok()) return Graph();
  const size_t n = g.labels_.size();
  // Structural invariants: offset arrays bracket their target arrays and
  // every projection array has one entry per node. Anything else would make
  // the accessors read out of bounds. (The label count is widened before
  // the +1: num_labels_ = 0xFFFFFFFF must not wrap to an expected size of
  // 0 and slip an empty offsets array past the check.)
  if (g.fwd_offsets_.size() != n + 1 || g.bwd_offsets_.size() != n + 1 ||
      g.label_offsets_.size() != static_cast<uint64_t>(g.num_labels_) + 1 ||
      g.fwd_offsets_.front() != 0 || g.bwd_offsets_.front() != 0 ||
      g.label_offsets_.front() != 0 ||
      g.fwd_offsets_.back() != g.fwd_targets_.size() ||
      g.bwd_offsets_.back() != g.bwd_targets_.size() ||
      g.label_offsets_.back() != g.label_nodes_.size() ||
      g.label_nodes_.size() != n) {
    src.Fail("graph snapshot structure is inconsistent");
    return Graph();
  }
  for (size_t i = 0; i + 1 < g.fwd_offsets_.size(); ++i) {
    if (g.fwd_offsets_[i] > g.fwd_offsets_[i + 1] ||
        g.bwd_offsets_[i] > g.bwd_offsets_[i + 1]) {
      src.Fail("graph snapshot offsets are not monotone");
      return Graph();
    }
  }
  for (LabelId l : g.labels_) {
    if (l >= g.num_labels_) {
      src.Fail("graph snapshot label out of range");
      return Graph();
    }
  }
  for (NodeId v : g.fwd_targets_) {
    if (v >= n) {
      src.Fail("graph snapshot edge target out of range");
      return Graph();
    }
  }
  for (NodeId v : g.bwd_targets_) {
    if (v >= n) {
      src.Fail("graph snapshot edge source out of range");
      return Graph();
    }
  }
  for (NodeId v : g.label_nodes_) {
    if (v >= n) {
      src.Fail("graph snapshot label list entry out of range");
      return Graph();
    }
  }
  g.label_bitmaps_.resize(g.num_labels_);
  for (size_t a = 0; a < g.num_labels_ && src.ok(); ++a) {
    g.label_bitmaps_[a] = Bitmap::Deserialize(src);
  }
  if (!src.ok()) return Graph();
  return g;
}

size_t Graph::OwnedHeapBytes() const {
  size_t bytes = labels_.OwnedHeapBytes() + fwd_offsets_.OwnedHeapBytes() +
                 fwd_targets_.OwnedHeapBytes() + bwd_offsets_.OwnedHeapBytes() +
                 bwd_targets_.OwnedHeapBytes() +
                 label_offsets_.OwnedHeapBytes() +
                 label_nodes_.OwnedHeapBytes();
  for (const Bitmap& b : label_bitmaps_) bytes += b.MemoryBytes();
  return bytes;
}

Graph Graph::MakeBidirected(const Graph& g) {
  std::vector<LabelId> labels(g.labels_.begin(), g.labels_.end());
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(g.NumEdges() * 2);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (NodeId w : g.OutNeighbors(v)) {
      edges.emplace_back(v, w);
      edges.emplace_back(w, v);
    }
  }
  return FromEdges(std::move(labels), std::move(edges));
}

std::vector<NodeId> IntersectRows(std::span<const std::span<const NodeId>> rows,
                                  std::span<const Bitmap* const> sets) {
  std::vector<NodeId> out;
  if (rows.empty()) {
    Bitmap::AndManyInto(sets, &out);
    return out;
  }
  const auto shortest = std::min_element(
      rows.begin(), rows.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
  for (NodeId v : *shortest) {
    auto in_row = [v](std::span<const NodeId> row) {
      return std::binary_search(row.begin(), row.end(), v);
    };
    if (std::all_of(rows.begin(), shortest, in_row) &&
        std::all_of(shortest + 1, rows.end(), in_row) &&
        std::all_of(sets.begin(), sets.end(),
                    [v](const Bitmap* set) { return set->Contains(v); })) {
      out.push_back(v);
    }
  }
  return out;
}

std::string Graph::Summary() const {
  std::ostringstream os;
  os << "|V|=" << NumNodes() << " |E|=" << NumEdges() << " |L|=" << NumLabels()
     << " d_avg=" << AverageDegree();
  return os.str();
}

}  // namespace rigpm
