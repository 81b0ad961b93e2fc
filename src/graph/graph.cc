#include "graph/graph.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <sstream>

namespace rigpm {

namespace {

// Offsets of the label inverted lists: entry a counts the nodes whose label
// is below a, for a in [0, num_labels]. Empty if a label is not below
// num_labels.
std::vector<uint64_t> LabelOffsets(std::span<const LabelId> labels,
                                   uint32_t num_labels) {
  std::vector<uint64_t> offsets(uint64_t{num_labels} + 1, 0);
  for (LabelId l : labels) {
    if (l >= num_labels) return {};
    ++offsets[l + 1];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  return offsets;
}

}  // namespace

Graph Graph::FromEdges(std::vector<LabelId> labels,
                       std::vector<std::pair<NodeId, NodeId>> edges) {
  Graph g;
  g.labels_ = std::move(labels);
  const uint32_t n = g.NumNodes();
  g.num_labels_ = 0;
  for (LabelId l : g.labels_) {
    // NumLabels() is the largest label plus one, so it must fit in 32 bits.
    assert(l < std::numeric_limits<LabelId>::max());
    g.num_labels_ = std::max(g.num_labels_, l + 1);
  }

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

  g.label_offsets_ = LabelOffsets(g.labels_, g.num_labels_);
  g.BuildLabelBitmaps();
  return g;
}

void Graph::BuildLabelBitmaps() {
  // Buckets the nodes by label, ascending within each bucket, then encodes
  // each bucket.
  std::vector<NodeId> nodes(NumNodes());
  std::vector<uint64_t> pos(label_offsets_.begin(), label_offsets_.end() - 1);
  for (NodeId v = 0; v < NumNodes(); ++v) nodes[pos[labels_[v]]++] = v;
  label_bitmaps_.resize(num_labels_);
  for (LabelId a = 0; a < num_labels_; ++a) {
    label_bitmaps_[a] = Bitmap::FromSorted(
        std::span(nodes).subspan(label_offsets_[a], LabelCount(a)));
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
  if (!src.ok()) return Graph();
  const size_t n = g.labels_.size();
  // Structural invariants: offset arrays bracket their target arrays, and
  // the label offsets hold one word per label plus one. Anything else would
  // make the accessors read out of bounds. (The label count is widened
  // before the +1: num_labels_ = 0xFFFFFFFF must not wrap to an expected
  // size of 0 and slip an empty offsets array past the check. The offsets
  // come from the payload, so the label count can never make the decoder
  // allocate more than the file holds.)
  if (g.fwd_offsets_.size() != n + 1 || g.bwd_offsets_.size() != n + 1 ||
      g.label_offsets_.size() != static_cast<uint64_t>(g.num_labels_) + 1 ||
      g.fwd_offsets_.front() != 0 || g.bwd_offsets_.front() != 0 ||
      g.fwd_offsets_.back() != g.fwd_targets_.size() ||
      g.bwd_offsets_.back() != g.bwd_targets_.size()) {
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
  // One pass checks every label against the alphabet and counts it; the
  // counts must be the ones the offsets declare, since LabelCount and the
  // label bitmaps read those.
  const std::vector<uint64_t> offsets = LabelOffsets(g.labels_, g.num_labels_);
  if (offsets.empty()) {
    src.Fail("graph snapshot label out of range");
    return Graph();
  }
  if (!std::equal(offsets.begin(), offsets.end(), g.label_offsets_.begin())) {
    src.Fail("graph snapshot label counts do not match its labels");
    return Graph();
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
  g.BuildLabelBitmaps();
  return g;
}

size_t Graph::OwnedHeapBytes() const {
  size_t bytes = labels_.OwnedHeapBytes() + fwd_offsets_.OwnedHeapBytes() +
                 fwd_targets_.OwnedHeapBytes() + bwd_offsets_.OwnedHeapBytes() +
                 bwd_targets_.OwnedHeapBytes() +
                 label_offsets_.OwnedHeapBytes();
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
