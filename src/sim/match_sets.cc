#include "sim/match_sets.h"

#include <algorithm>

namespace rigpm {

const char* ChildCheckModeName(ChildCheckMode m) {
  switch (m) {
    case ChildCheckMode::kBinSearch:
      return "binSearch";
    case ChildCheckMode::kBitIter:
      return "bitIter";
    case ChildCheckMode::kBitBat:
      return "bitBat";
  }
  return "?";
}

CandidateSets InitialMatchSets(const Graph& g, const PatternQuery& q) {
  CandidateSets sets(q.NumNodes());
  for (QueryNodeId i = 0; i < q.NumNodes(); ++i) {
    LabelId label = q.Label(i);
    if (label < g.NumLabels()) {
      // Deep copy, container by container: a borrowed mmap'd payload
      // becomes a private copy of the same bytes.
      sets[i] = g.LabelBitmap(label);
    }  // else: label absent from the graph -> empty candidate set
  }
  return sets;
}

namespace {

// Multi-source BFS with an optional depth bound. `forward` selects the edge
// direction to follow; the seeds themselves are NOT in the result (paths
// must have >= 1 edge).
Bitmap MultiSourceBfs(const Graph& g, const Bitmap& seeds, bool forward,
                      uint32_t max_hops) {
  std::vector<NodeId> frontier = seeds.ToVector();
  std::vector<uint8_t> in_result(g.NumNodes(), 0);
  std::vector<NodeId> result_nodes;
  uint32_t depth = 0;
  size_t level_end = frontier.size();
  for (size_t head = 0; head < frontier.size(); ++head) {
    if (head == level_end) {
      ++depth;
      level_end = frontier.size();
    }
    if (max_hops > 0 && depth >= max_hops) break;
    NodeId v = frontier[head];
    auto neighbors = forward ? g.OutNeighbors(v) : g.InNeighbors(v);
    for (NodeId w : neighbors) {
      if (!in_result[w]) {
        in_result[w] = 1;
        result_nodes.push_back(w);
        frontier.push_back(w);
      }
    }
  }
  std::sort(result_nodes.begin(), result_nodes.end());
  return Bitmap::FromSorted(result_nodes);
}

}  // namespace

Bitmap NodesReaching(const Graph& g, const Bitmap& targets,
                     uint32_t max_hops) {
  return MultiSourceBfs(g, targets, /*forward=*/false, max_hops);
}

Bitmap NodesReachableFrom(const Graph& g, const Bitmap& sources,
                          uint32_t max_hops) {
  return MultiSourceBfs(g, sources, /*forward=*/true, max_hops);
}

bool BoundedReaches(const Graph& g, NodeId u, NodeId v, uint32_t max_hops) {
  Bitmap seed;
  seed.Add(u);
  return MultiSourceBfs(g, seed, /*forward=*/true, max_hops).Contains(v);
}

namespace {

// Per-pair existence probe: does u have a forward partner in dst along e?
bool HasForwardPartner(const MatchContext& ctx, const QueryEdge& e, NodeId u,
                       const std::vector<NodeId>& dst_nodes,
                       ChildCheckMode mode, const Bitmap& dst_bitmap,
                       SimStats* stats) {
  const Graph& g = ctx.graph();
  if (e.kind == EdgeKind::kChild) {
    if (mode == ChildCheckMode::kBitIter) {
      if (stats != nullptr) ++stats->pair_checks;
      return g.OutBitmap(u).Intersects(dst_bitmap);
    }
    // binSearch: probe each candidate against u's sorted adjacency array.
    auto adj = g.OutNeighbors(u);
    for (NodeId w : dst_nodes) {
      if (stats != nullptr) ++stats->pair_checks;
      if (std::binary_search(adj.begin(), adj.end(), w)) return true;
    }
    return false;
  }
  for (NodeId w : dst_nodes) {
    if (stats != nullptr) ++stats->pair_checks;
    if (e.max_hops > 0 ? BoundedReaches(ctx.graph(), u, w, e.max_hops)
                       : ctx.reach().Reaches(u, w)) {
      return true;
    }
  }
  return false;
}

bool HasBackwardPartner(const MatchContext& ctx, const QueryEdge& e, NodeId v,
                        const std::vector<NodeId>& src_nodes,
                        ChildCheckMode mode, const Bitmap& src_bitmap,
                        SimStats* stats) {
  const Graph& g = ctx.graph();
  if (e.kind == EdgeKind::kChild) {
    if (mode == ChildCheckMode::kBitIter) {
      if (stats != nullptr) ++stats->pair_checks;
      return g.InBitmap(v).Intersects(src_bitmap);
    }
    auto adj = g.InNeighbors(v);
    for (NodeId u : src_nodes) {
      if (stats != nullptr) ++stats->pair_checks;
      if (std::binary_search(adj.begin(), adj.end(), u)) return true;
    }
    return false;
  }
  for (NodeId u : src_nodes) {
    if (stats != nullptr) ++stats->pair_checks;
    if (e.max_hops > 0 ? BoundedReaches(ctx.graph(), u, v, e.max_hops)
                       : ctx.reach().Reaches(u, v)) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool ForwardPruneEdge(const MatchContext& ctx, const QueryEdge& e, Bitmap* src,
                      const Bitmap& dst, const SimOptions& opts,
                      SimStats* stats) {
  const Graph& g = ctx.graph();
  const uint64_t before = src->Cardinality();
  if (dst.Empty()) {
    src->Clear();
  } else if (e.kind == EdgeKind::kChild &&
             opts.child_check == ChildCheckMode::kBitBat) {
    // Batch: src nodes with a child in dst are exactly the union of the
    // backward adjacency lists of dst, intersected with src (Section 4.5).
    std::vector<const Bitmap*> lists;
    lists.reserve(dst.Cardinality());
    dst.ForEach([&](NodeId w) { lists.push_back(&g.InBitmap(w)); });
    if (stats != nullptr) ++stats->pair_checks;
    src->AndWith(Bitmap::OrMany(lists));
  } else if (e.kind == EdgeKind::kDescendant && opts.batch_reachability) {
    // Batch: nodes that reach some dst node, via one reverse BFS.
    if (stats != nullptr) ++stats->pair_checks;
    src->AndWith(NodesReaching(g, dst, e.max_hops));
  } else {
    std::vector<NodeId> dst_nodes = dst.ToVector();
    std::vector<NodeId> survivors;
    src->ForEach([&](NodeId u) {
      if (HasForwardPartner(ctx, e, u, dst_nodes, opts.child_check, dst,
                            stats)) {
        survivors.push_back(u);
      }
    });
    *src = Bitmap::FromSorted(survivors);
  }
  const uint64_t after = src->Cardinality();
  if (stats != nullptr) stats->pruned_nodes += before - after;
  return after != before;
}

bool BackwardPruneEdge(const MatchContext& ctx, const QueryEdge& e,
                       const Bitmap& src, Bitmap* dst, const SimOptions& opts,
                       SimStats* stats) {
  const Graph& g = ctx.graph();
  const uint64_t before = dst->Cardinality();
  if (src.Empty()) {
    dst->Clear();
  } else if (e.kind == EdgeKind::kChild &&
             opts.child_check == ChildCheckMode::kBitBat) {
    std::vector<const Bitmap*> lists;
    lists.reserve(src.Cardinality());
    src.ForEach([&](NodeId u) { lists.push_back(&g.OutBitmap(u)); });
    if (stats != nullptr) ++stats->pair_checks;
    dst->AndWith(Bitmap::OrMany(lists));
  } else if (e.kind == EdgeKind::kDescendant && opts.batch_reachability) {
    if (stats != nullptr) ++stats->pair_checks;
    dst->AndWith(NodesReachableFrom(g, src, e.max_hops));
  } else {
    std::vector<NodeId> src_nodes = src.ToVector();
    std::vector<NodeId> survivors;
    dst->ForEach([&](NodeId v) {
      if (HasBackwardPartner(ctx, e, v, src_nodes, opts.child_check, src,
                             stats)) {
        survivors.push_back(v);
      }
    });
    *dst = Bitmap::FromSorted(survivors);
  }
  const uint64_t after = dst->Cardinality();
  if (stats != nullptr) stats->pruned_nodes += before - after;
  return after != before;
}

}  // namespace rigpm
