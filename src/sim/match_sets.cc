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
      // A copy: the pruning phases shrink it in place.
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

// Rebuilds `*set` from the members `keep` accepts; leaves it untouched when
// every member stays.
template <typename Keep>
void FilterInPlace(Bitmap* set, Keep keep) {
  std::vector<NodeId> survivors;
  survivors.reserve(set->Cardinality());
  set->ForEach([&](NodeId v) {
    if (keep(v)) survivors.push_back(v);
  });
  if (survivors.size() != set->Cardinality()) {
    *set = Bitmap::FromSorted(survivors);
  }
}

// Batch child prune (kBitBat, Section 4.5): marks the CSR in-neighbours
// (forward prune) or out-neighbours (backward prune) of every `fixed` node
// in a |V|-entry array, then keeps the marked members of `*pruned`.
void KeepChildNeighbours(const Graph& g, const Bitmap& fixed, bool forward,
                         Bitmap* pruned) {
  std::vector<uint8_t> marked(g.NumNodes(), 0);
  fixed.ForEach([&](NodeId w) {
    for (NodeId v : forward ? g.InNeighbors(w) : g.OutNeighbors(w)) {
      marked[v] = 1;
    }
  });
  FilterInPlace(pruned, [&](NodeId v) { return marked[v] != 0; });
}

// Batch prune of an unbounded descendant edge: one sweep over the
// condensation instead of a BFS over the data graph. Component ids are
// topological (every DAG edge goes to a larger id), and u ≺ v needs at least
// one edge, so a node reaches itself only inside a cyclic component.
//  * Forward (keep members that reach some `fixed` node): descending ids,
//    linked[c] = (fixed[c] ∧ cyclic(c)) ∨ ∃ s ∈ Successors(c): fixed[s] ∨
//    linked[s].
//  * Backward (keep members reached from some `fixed` node): ascending ids,
//    linked[s] = a fixed node of an earlier component reaches s; a member of
//    c is kept iff linked[c] ∨ (fixed[c] ∧ cyclic(c)).
void KeepReachRelated(const Condensation& cond, const Bitmap& fixed,
                      bool forward, Bitmap* pruned) {
  const uint32_t nc = cond.NumComponents();
  std::vector<uint8_t> fixed_comp(nc, 0);
  std::vector<uint8_t> linked(nc, 0);
  uint32_t lo = nc, hi = 0;
  fixed.ForEach([&](NodeId w) {
    const uint32_t c = cond.Component(w);
    fixed_comp[c] = 1;
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  });
  if (forward) {
    // Components after the last fixed one reach none.
    for (uint32_t c = hi + 1; c-- > 0;) {
      bool reaches = fixed_comp[c] && cond.IsCyclic(c);
      for (uint32_t s : cond.Successors(c)) {
        if (reaches) break;
        reaches = fixed_comp[s] || linked[s];
      }
      linked[c] = reaches;
    }
    FilterInPlace(pruned,
                  [&](NodeId v) { return linked[cond.Component(v)] != 0; });
    return;
  }
  // Components before the first fixed one are reached by none.
  for (uint32_t c = lo; c < nc; ++c) {
    if (!fixed_comp[c] && !linked[c]) continue;
    for (uint32_t s : cond.Successors(c)) linked[s] = 1;
  }
  FilterInPlace(pruned, [&](NodeId v) {
    const uint32_t c = cond.Component(v);
    return linked[c] || (fixed_comp[c] && cond.IsCyclic(c));
  });
}

// Per-pair existence probe: does `v` have a partner among `fixed_nodes`
// along e? `forward` = true asks for a forward partner (v on the e.from
// side), false for a backward one (v on the e.to side).
bool HasPartner(const MatchContext& ctx, const QueryEdge& e, NodeId v,
                const std::vector<NodeId>& fixed_nodes, const Bitmap& fixed,
                bool forward, ChildCheckMode mode, SimStats* stats) {
  const Graph& g = ctx.graph();
  if (e.kind == EdgeKind::kChild) {
    auto adj = forward ? g.OutNeighbors(v) : g.InNeighbors(v);
    if (mode == ChildCheckMode::kBitIter) {
      // bitIter: walk v's row, stopping at the first candidate.
      if (stats != nullptr) ++stats->pair_checks;
      return std::any_of(adj.begin(), adj.end(),
                         [&fixed](NodeId w) { return fixed.Contains(w); });
    }
    // binSearch: probe each candidate against v's sorted adjacency array.
    for (NodeId w : fixed_nodes) {
      if (stats != nullptr) ++stats->pair_checks;
      if (std::binary_search(adj.begin(), adj.end(), w)) return true;
    }
    return false;
  }
  for (NodeId w : fixed_nodes) {
    if (stats != nullptr) ++stats->pair_checks;
    if (forward ? ctx.EdgePairMatch(e, v, w) : ctx.EdgePairMatch(e, w, v)) {
      return true;
    }
  }
  return false;
}

// Shared body of ForwardPruneEdge (`forward` = true: `pruned` is the e.from
// side, `fixed` the e.to side) and BackwardPruneEdge (the reverse).
bool PruneEdgeSide(const MatchContext& ctx, const QueryEdge& e,
                   const Bitmap& fixed, Bitmap* pruned, bool forward,
                   const SimOptions& opts, SimStats* stats) {
  const uint64_t before = pruned->Cardinality();
  if (fixed.Empty()) {
    pruned->Clear();
  } else if (e.kind == EdgeKind::kChild &&
             opts.child_check == ChildCheckMode::kBitBat) {
    if (stats != nullptr) ++stats->pair_checks;
    KeepChildNeighbours(ctx.graph(), fixed, forward, pruned);
  } else if (e.kind == EdgeKind::kDescendant && opts.batch_reachability) {
    if (stats != nullptr) ++stats->pair_checks;
    if (e.max_hops > 0) {
      // Hop counts do not survive condensation: keep the members of the
      // hop-limited ball around `fixed`.
      const Bitmap ball =
          forward ? NodesReaching(ctx.graph(), fixed, e.max_hops)
                  : NodesReachableFrom(ctx.graph(), fixed, e.max_hops);
      FilterInPlace(pruned, [&](NodeId v) { return ball.Contains(v); });
    } else {
      KeepReachRelated(ctx.reach().condensation(), fixed, forward, pruned);
    }
  } else {
    // binSearch and the per-pair descendant probes walk `fixed` as a
    // vector; bitIter probes the bitmap and needs none.
    std::vector<NodeId> fixed_nodes;
    if (e.kind == EdgeKind::kDescendant ||
        opts.child_check == ChildCheckMode::kBinSearch) {
      fixed_nodes = fixed.ToVector();
    }
    FilterInPlace(pruned, [&](NodeId v) {
      return HasPartner(ctx, e, v, fixed_nodes, fixed, forward,
                        opts.child_check, stats);
    });
  }
  const uint64_t after = pruned->Cardinality();
  if (stats != nullptr) stats->pruned_nodes += before - after;
  return after != before;
}

}  // namespace

bool ForwardPruneEdge(const MatchContext& ctx, const QueryEdge& e, Bitmap* src,
                      const Bitmap& dst, const SimOptions& opts,
                      SimStats* stats) {
  return PruneEdgeSide(ctx, e, dst, src, /*forward=*/true, opts, stats);
}

bool BackwardPruneEdge(const MatchContext& ctx, const QueryEdge& e,
                       const Bitmap& src, Bitmap* dst, const SimOptions& opts,
                       SimStats* stats) {
  return PruneEdgeSide(ctx, e, src, dst, /*forward=*/false, opts, stats);
}

}  // namespace rigpm
