#include "baseline/wcoj_engine.h"

#include <chrono>

#include "baseline/data_search.h"
#include "order/search_order.h"
#include "reach/transitive_closure.h"

namespace rigpm {

EvalStatus WcojEngine::MaterializeClosure(size_t max_bytes, double* build_ms) {
  const auto t0 = std::chrono::steady_clock::now();
  TransitiveClosure tc(graph_);
  const uint32_t n = graph_.NumNodes();
  closure_fwd_.assign(n, Bitmap());
  closure_bwd_.assign(n, Bitmap());
  EvalStatus status = EvalStatus::kOk;
  size_t bytes = 0;
  for (NodeId u = 0; u < n; ++u) {
    Bitmap reach = tc.ReachableNodeSet(u, graph_);
    bytes += reach.MemoryBytes();
    if (bytes > max_bytes) {
      closure_fwd_.clear();
      closure_bwd_.clear();
      status = EvalStatus::kOutOfMemory;
      break;
    }
    reach.ForEach([&](NodeId v) { closure_bwd_[v].Add(u); });
    closure_fwd_[u] = std::move(reach);
  }
  if (build_ms != nullptr) {
    *build_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  }
  return status;
}

BaselineResult WcojEngine::Evaluate(const PatternQuery& q,
                                    const BaselineOptions& opts,
                                    const OccurrenceSink& sink,
                                    bool use_ri_order) const {
  BaselineResult result;
  for (const QueryEdge& e : q.Edges()) {
    // The closure ignores hop bounds.
    if (e.kind == EdgeKind::kDescendant && (!HasClosure() || e.max_hops > 0)) {
      result.status = EvalStatus::kUnsupported;
      return result;
    }
  }
  RunClock clock(opts.timeout_ms);

  const Bitmap empty;
  std::vector<const Bitmap*> label_sets(q.NumNodes(), &empty);
  std::vector<uint64_t> label_counts(q.NumNodes(), 0);
  for (QueryNodeId v = 0; v < q.NumNodes(); ++v) {
    if (q.Label(v) >= graph_.NumLabels()) continue;
    label_sets[v] = &graph_.LabelBitmap(q.Label(v));
    label_counts[v] = graph_.LabelCount(q.Label(v));
  }
  std::vector<QueryNodeId> order =
      use_ri_order ? RiOrder(q) : JoOrder(q, label_counts);
  DataSearch({.graph = graph_,
              .candidates = label_sets,
              .reach_fwd = closure_fwd_,
              .reach_bwd = closure_bwd_},
             q, order, opts, sink, &clock, &result);
  return result;
}

}  // namespace rigpm
