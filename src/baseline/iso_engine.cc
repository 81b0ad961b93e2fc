#include "baseline/iso_engine.h"

#include <vector>

#include "baseline/data_search.h"
#include "order/search_order.h"

namespace rigpm {

namespace {

// Per-label counts of the labels of `neighbors`, for the NLF filter.
std::vector<uint32_t> LabelHistogram(const Graph& g,
                                     std::span<const NodeId> neighbors) {
  std::vector<uint32_t> hist(g.NumLabels(), 0);
  for (NodeId w : neighbors) ++hist[g.Label(w)];
  return hist;
}

}  // namespace

BaselineResult IsoEvaluate(const Graph& g, const PatternQuery& q,
                           const BaselineOptions& opts,
                           const OccurrenceSink& sink) {
  BaselineResult result;
  if (q.NumDescendantEdges() > 0) {
    result.status = EvalStatus::kUnsupported;
    return result;
  }
  RunClock clock(opts.timeout_ms);

  // --- Candidate sets: label, degree and NLF filters.
  const uint32_t n = q.NumNodes();
  std::vector<Bitmap> candidates(n);
  std::vector<uint64_t> sizes(n, 0);
  for (QueryNodeId v = 0; v < n; ++v) {
    if (q.Label(v) >= g.NumLabels()) continue;  // label absent: no match
    std::vector<uint32_t> q_out(g.NumLabels(), 0), q_in(g.NumLabels(), 0);
    auto bump = [&](std::vector<uint32_t>& hist, QueryNodeId w) {
      if (q.Label(w) < g.NumLabels()) ++hist[q.Label(w)];
    };
    for (QueryEdgeId e : q.OutEdges(v)) bump(q_out, q.Edge(e).to);
    for (QueryEdgeId e : q.InEdges(v)) bump(q_in, q.Edge(e).from);
    std::vector<NodeId> kept;
    g.LabelBitmap(q.Label(v)).ForEach([&](NodeId u) {
      if (g.OutDegree(u) < q.OutDegree(v) || g.InDegree(u) < q.InDegree(v)) {
        return;
      }
      auto out_hist = LabelHistogram(g, g.OutNeighbors(u));
      auto in_hist = LabelHistogram(g, g.InNeighbors(u));
      bool ok = true;
      for (LabelId a = 0; a < g.NumLabels() && ok; ++a) {
        ok = out_hist[a] >= q_out[a] && in_hist[a] >= q_in[a];
      }
      if (ok) kept.push_back(u);
    });
    candidates[v] = Bitmap::FromSorted(kept);
    sizes[v] = kept.size();
  }
  clock.EndPhase("Filter", &result);

  std::vector<const Bitmap*> sets;
  for (const Bitmap& c : candidates) sets.push_back(&c);
  DataSearch({.graph = g, .candidates = sets, .injective = true}, q,
             JoOrder(q, sizes), opts, sink, &clock, &result);
  return result;
}

}  // namespace rigpm
