#include "baseline/iso_engine.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <vector>

namespace rigpm {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Per-label neighbor counts of a node, for the NLF filter.
std::vector<uint32_t> LabelHistogram(const Graph& g,
                                     std::span<const NodeId> neighbors) {
  std::vector<uint32_t> hist(g.NumLabels(), 0);
  for (NodeId w : neighbors) ++hist[g.Label(w)];
  return hist;
}

}  // namespace

IsoResult IsoEvaluate(const Graph& g, const PatternQuery& q,
                      const IsoOptions& opts, const OccurrenceSink& sink) {
  IsoResult result;
  auto start = Clock::now();
  if (q.NumDescendantEdges() > 0) {
    result.status = EvalStatus::kUnsupported;
    return result;
  }

  // --- Candidate sets: label + degree (+ NLF) filters.
  const uint32_t n = q.NumNodes();
  std::vector<Bitmap> candidates(n);
  // Query-side label histograms for NLF.
  std::vector<std::vector<uint32_t>> q_out_hist(n), q_in_hist(n);
  if (opts.use_nlf_filter) {
    for (QueryNodeId v = 0; v < n; ++v) {
      q_out_hist[v].assign(g.NumLabels(), 0);
      q_in_hist[v].assign(g.NumLabels(), 0);
      for (QueryEdgeId e : q.OutEdges(v)) {
        LabelId l = q.Label(q.Edge(e).to);
        if (l < g.NumLabels()) ++q_out_hist[v][l];
      }
      for (QueryEdgeId e : q.InEdges(v)) {
        LabelId l = q.Label(q.Edge(e).from);
        if (l < g.NumLabels()) ++q_in_hist[v][l];
      }
    }
  }
  for (QueryNodeId v = 0; v < n; ++v) {
    LabelId l = q.Label(v);
    if (l >= g.NumLabels()) {
      result.total_ms = MsSince(start);
      return result;  // label absent: empty answer
    }
    std::vector<NodeId> kept;
    for (NodeId u : g.LabelNodes(l)) {
      if (g.OutDegree(u) < q.OutDegree(v) || g.InDegree(u) < q.InDegree(v)) {
        continue;
      }
      if (opts.use_nlf_filter) {
        auto out_hist = LabelHistogram(g, g.OutNeighbors(u));
        auto in_hist = LabelHistogram(g, g.InNeighbors(u));
        bool ok = true;
        for (LabelId a = 0; a < g.NumLabels() && ok; ++a) {
          ok = out_hist[a] >= q_out_hist[v][a] && in_hist[a] >= q_in_hist[v][a];
        }
        if (!ok) continue;
      }
      kept.push_back(u);
    }
    candidates[v] = Bitmap::FromSorted(kept);
    if (candidates[v].Empty()) {
      result.total_ms = MsSince(start);
      return result;
    }
  }

  // --- Connected greedy order by candidate cardinality.
  std::vector<uint8_t> chosen(n, 0);
  std::vector<QueryNodeId> order;
  QueryNodeId best = 0;
  for (QueryNodeId v = 1; v < n; ++v) {
    if (candidates[v].Cardinality() < candidates[best].Cardinality()) best = v;
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
      if (next == kInvalidNode ||
          candidates[v].Cardinality() < candidates[next].Cardinality()) {
        next = v;
      }
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

  // --- Backtracking with injectivity.
  std::vector<NodeId> tuple(n, kInvalidNode);
  std::vector<NodeId> used;  // matched data nodes, small linear scan
  uint64_t counter = 0;
  bool timeout_hit = false;
  auto timed_out = [&]() {
    return opts.timeout_ms > 0.0 && MsSince(start) > opts.timeout_ms;
  };

  std::function<bool(uint32_t)> descend = [&](uint32_t i) -> bool {
    if (i == n) {
      ++result.num_embeddings;
      if (sink && !sink(tuple)) return false;
      return result.num_embeddings < opts.limit;
    }
    if (((++counter) & 0xFFF) == 0 && timed_out()) {
      timeout_hit = true;
      return false;
    }
    QueryNodeId qi = order[i];
    // The candidates of qi adjacent to every matched neighbour: the in-rows
    // of matched children and the out-rows of matched parents.
    std::vector<std::span<const NodeId>> rows;
    for (QueryEdgeId e : q.OutEdges(qi)) {
      QueryNodeId other = q.Edge(e).to;
      if (tuple[other] != kInvalidNode) {
        rows.push_back(g.InNeighbors(tuple[other]));
      }
    }
    for (QueryEdgeId e : q.InEdges(qi)) {
      QueryNodeId other = q.Edge(e).from;
      if (tuple[other] != kInvalidNode) {
        rows.push_back(g.OutNeighbors(tuple[other]));
      }
    }
    const Bitmap* cand = &candidates[qi];
    bool keep_going = true;
    for (NodeId v : IntersectRows(rows, {&cand, 1})) {
      // Injectivity: the one-to-one constraint of isomorphic matching.
      if (std::find(used.begin(), used.end(), v) != used.end()) continue;
      tuple[qi] = v;
      used.push_back(v);
      keep_going = descend(i + 1);
      used.pop_back();
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
