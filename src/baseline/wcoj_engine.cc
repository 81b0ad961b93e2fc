#include "baseline/wcoj_engine.h"

#include <algorithm>
#include <chrono>

#include "reach/transitive_closure.h"

namespace rigpm {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Candidate-size-greedy connected order (the cardinality-driven ordering
// WCO-join systems derive from their catalogs).
std::vector<QueryNodeId> GreedyOrder(const Graph& g, const PatternQuery& q) {
  const uint32_t n = q.NumNodes();
  auto card = [&](QueryNodeId v) -> uint64_t {
    LabelId l = q.Label(v);
    return l < g.NumLabels() ? g.LabelCount(l) : 0;
  };
  std::vector<uint8_t> chosen(n, 0);
  std::vector<QueryNodeId> order;
  QueryNodeId best = 0;
  for (QueryNodeId v = 1; v < n; ++v) {
    if (card(v) < card(best)) best = v;
  }
  order.push_back(best);
  chosen[best] = 1;
  while (order.size() < n) {
    QueryNodeId next = kInvalidNode;
    for (QueryNodeId v = 0; v < n; ++v) {
      if (chosen[v]) continue;
      bool adjacent = false;
      for (QueryNodeId u : order) {
        if (q.HasEdgeBetween(u, v) || q.HasEdgeBetween(v, u)) {
          adjacent = true;
          break;
        }
      }
      if (!adjacent) continue;
      if (next == kInvalidNode || card(v) < card(next)) next = v;
    }
    if (next == kInvalidNode) {
      for (QueryNodeId v = 0; v < n; ++v) {
        if (!chosen[v]) {
          next = v;
          break;
        }
      }
    }
    order.push_back(next);
    chosen[next] = 1;
  }
  return order;
}

std::vector<QueryNodeId> RiStyleOrder(const PatternQuery& q) {
  const uint32_t n = q.NumNodes();
  std::vector<uint8_t> chosen(n, 0);
  std::vector<QueryNodeId> order;
  QueryNodeId best = 0;
  for (QueryNodeId v = 1; v < n; ++v) {
    if (q.Degree(v) > q.Degree(best)) best = v;
  }
  order.push_back(best);
  chosen[best] = 1;
  while (order.size() < n) {
    QueryNodeId next = kInvalidNode;
    int best_back = -1;
    for (QueryNodeId v = 0; v < n; ++v) {
      if (chosen[v]) continue;
      int back = 0;
      for (QueryNodeId u : order) {
        if (q.HasEdgeBetween(u, v) || q.HasEdgeBetween(v, u)) ++back;
      }
      if (back > best_back ||
          (back == best_back && next != kInvalidNode &&
           q.Degree(v) > q.Degree(next))) {
        best_back = back;
        next = v;
      }
    }
    order.push_back(next);
    chosen[next] = 1;
  }
  return order;
}

}  // namespace

EvalStatus WcojEngine::MaterializeClosure(size_t max_bytes, double* build_ms) {
  auto t0 = Clock::now();
  TransitiveClosure tc(graph_);
  const uint32_t n = graph_.NumNodes();
  closure_fwd_.assign(n, Bitmap());
  closure_bwd_.assign(n, Bitmap());
  size_t bytes = 0;
  for (NodeId u = 0; u < n; ++u) {
    Bitmap reach = tc.ReachableNodeSet(u, graph_);
    bytes += reach.MemoryBytes();
    if (bytes > max_bytes) {
      closure_fwd_.clear();
      closure_bwd_.clear();
      if (build_ms != nullptr) *build_ms = MsSince(t0);
      return EvalStatus::kOutOfMemory;
    }
    reach.ForEach([&](NodeId v) { closure_bwd_[v].Add(u); });
    closure_fwd_[u] = std::move(reach);
  }
  if (build_ms != nullptr) *build_ms = MsSince(t0);
  return EvalStatus::kOk;
}

WcojResult WcojEngine::Evaluate(const PatternQuery& q, const WcojOptions& opts,
                                const OccurrenceSink& sink) const {
  WcojResult result;
  auto start = Clock::now();
  if (q.NumDescendantEdges() > 0 && !HasClosure()) {
    result.status = EvalStatus::kUnsupported;
    return result;
  }
  for (const QueryEdge& e : q.Edges()) {
    if (e.kind == EdgeKind::kDescendant && e.max_hops > 0) {
      result.status = EvalStatus::kUnsupported;  // closure ignores bounds
      return result;
    }
  }

  std::vector<QueryNodeId> order =
      opts.use_ri_order ? RiStyleOrder(q) : GreedyOrder(graph_, q);
  std::vector<uint32_t> pos(q.NumNodes());
  for (uint32_t i = 0; i < order.size(); ++i) pos[order[i]] = i;

  // Constraints toward earlier positions, as in MJoin but resolved against
  // raw data adjacency (or the materialized closure).
  struct Constraint {
    QueryEdgeId edge;
    uint32_t earlier_pos;
    bool earlier_is_tail;
  };
  std::vector<std::vector<Constraint>> constraints(q.NumNodes());
  for (QueryEdgeId e = 0; e < q.NumEdges(); ++e) {
    const QueryEdge& edge = q.Edge(e);
    uint32_t pf = pos[edge.from];
    uint32_t pt = pos[edge.to];
    if (pf < pt) {
      constraints[pt].push_back({e, pf, true});
    } else {
      constraints[pf].push_back({e, pt, false});
    }
  }

  std::vector<NodeId> tuple(q.NumNodes(), kInvalidNode);
  uint64_t counter = 0;
  bool timeout_hit = false;
  auto timed_out = [&]() {
    return opts.timeout_ms > 0.0 && MsSince(start) > opts.timeout_ms;
  };

  // Iterative-recursive backtracking.
  std::function<bool(uint32_t)> descend = [&](uint32_t i) -> bool {
    if (i == order.size()) {
      ++result.num_occurrences;
      if (sink && !sink(tuple)) return false;
      return result.num_occurrences < opts.limit;
    }
    if (((++counter) & 0xFFF) == 0 && timed_out()) {
      timeout_hit = true;
      return false;
    }
    QueryNodeId qi = order[i];
    LabelId label = q.Label(qi);
    if (label >= graph_.NumLabels()) return true;
    // Child constraints contribute the matched node's adjacency row,
    // descendant ones its closure bitmap.
    std::vector<std::span<const NodeId>> rows;
    std::vector<const Bitmap*> sets = {&graph_.LabelBitmap(label)};
    for (const Constraint& c : constraints[i]) {
      const QueryEdge& edge = q.Edge(c.edge);
      NodeId matched = tuple[order[c.earlier_pos]];
      if (edge.kind == EdgeKind::kChild) {
        rows.push_back(c.earlier_is_tail ? graph_.OutNeighbors(matched)
                                         : graph_.InNeighbors(matched));
      } else {
        sets.push_back(c.earlier_is_tail ? &closure_fwd_[matched]
                                         : &closure_bwd_[matched]);
      }
    }
    ++result.intersections;
    bool keep_going = true;
    for (NodeId v : IntersectRows(rows, sets)) {
      tuple[qi] = v;
      keep_going = descend(i + 1);
      if (!keep_going) break;
    }
    tuple[qi] = kInvalidNode;
    return keep_going;
  };
  descend(0);
  if (timeout_hit) result.status = EvalStatus::kTimeout;
  result.total_ms = MsSince(start);
  return result;
}

}  // namespace rigpm
