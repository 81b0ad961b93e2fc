#include "baseline/data_search.h"

#include <vector>

namespace rigpm {

void DataSearch(const DataSearchSpace& space, const PatternQuery& q,
                std::span<const QueryNodeId> order,
                const BaselineOptions& opts, const OccurrenceSink& sink,
                RunClock* clock, BaselineResult* result) {
  const Graph& g = space.graph;
  const uint32_t n = static_cast<uint32_t>(order.size());
  const auto constraints = EarlierConstraints(q, order);
  std::vector<std::vector<const QueryEdge*>> loops(n);
  for (uint32_t i = 0; i < n; ++i) {
    for (QueryEdgeId e : q.OutEdges(order[i])) {
      if (q.Edge(e).to == order[i]) loops[i].push_back(&q.Edge(e));
    }
  }
  Occurrence tuple(q.NumNodes(), kInvalidNode);

  // Whether data node v may take step i: every loop on q_i holds on v and,
  // for an injective search, no earlier step holds v.
  auto admits = [&](uint32_t i, NodeId v) {
    for (const QueryEdge* loop : loops[i]) {
      const bool holds = loop->kind == EdgeKind::kChild
                             ? g.HasEdge(v, v)
                             : space.reach_fwd[v].Contains(v);
      if (!holds) return false;
    }
    for (uint32_t j = 0; space.injective && j < i; ++j) {
      if (tuple[order[j]] == v) return false;
    }
    return true;
  };

  // Per step, its candidates and the next one to try.
  std::vector<std::vector<NodeId>> candidates(n);
  std::vector<size_t> next(n, 0);
  std::vector<std::span<const NodeId>> rows;
  std::vector<const Bitmap*> sets;
  auto enter = [&](uint32_t i) {
    rows.clear();
    sets.assign(1, space.candidates[order[i]]);
    for (const EarlierConstraint& c : constraints[i]) {
      const NodeId matched = tuple[order[c.earlier_pos]];
      if (q.Edge(c.edge).kind == EdgeKind::kChild) {
        rows.push_back(c.earlier_is_tail ? g.OutNeighbors(matched)
                                         : g.InNeighbors(matched));
      } else {
        sets.push_back(c.earlier_is_tail ? &space.reach_fwd[matched]
                                         : &space.reach_bwd[matched]);
      }
    }
    candidates[i] = IntersectRows(rows, sets);
    next[i] = 0;
  };

  uint64_t steps = 0;
  uint32_t i = 0;
  const bool search = n > 0 && opts.limit > 0;
  if (search) enter(0);
  while (search) {
    if (next[i] == candidates[i].size()) {  // step i is exhausted: back up
      tuple[order[i]] = kInvalidNode;
      if (i == 0) break;
      --i;
      continue;
    }
    const NodeId v = candidates[i][next[i]++];
    if (!admits(i, v)) continue;
    tuple[order[i]] = v;
    if (i + 1 < n) {
      if ((++steps & 0xFFF) == 0 && clock->Expired()) {
        result->status = EvalStatus::kTimeout;
        break;
      }
      enter(++i);
      continue;
    }
    ++result->num_occurrences;
    if ((sink && !sink(tuple)) || result->num_occurrences == opts.limit) {
      break;
    }
  }
  clock->EndPhase("Enumerate", result);
}

}  // namespace rigpm
