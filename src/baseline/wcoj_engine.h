#ifndef RIGPM_BASELINE_WCOJ_ENGINE_H_
#define RIGPM_BASELINE_WCOJ_ENGINE_H_

#include <cstddef>
#include <vector>

#include "baseline/baseline.h"
#include "enumerate/mjoin.h"
#include "graph/graph.h"
#include "query/pattern_query.h"

namespace rigpm {

/// A Graphflow/EmptyHeaded/RapidMatch-style engine: generic worst-case
/// optimal joins executed *directly on the data graph* (no runtime index
/// graph), matching one query node at a time by intersecting label inverted
/// lists with the adjacency lists of already-matched neighbors (DataSearch).
///
/// Like those systems it natively supports only child (edge-to-edge) edges.
/// Descendant edges require `MaterializeClosure()` first — the per-node
/// transitive-closure adjacency the paper had to feed GraphflowDB
/// (Section 7.5, Fig. 18) — whose cost is exactly what that experiment
/// charges the system with. Bounded descendant edges are unsupported.
class WcojEngine {
 public:
  explicit WcojEngine(const Graph& g) : graph_(g) {}

  /// Materializes closure adjacency bitmaps for every node. Fails with
  /// kOutOfMemory when the estimated footprint would exceed `max_bytes`.
  EvalStatus MaterializeClosure(size_t max_bytes, double* build_ms);

  bool HasClosure() const { return !closure_fwd_.empty(); }

  /// Matches the query nodes in the GF-style order, GM's JO rule over the
  /// label counts (the cardinalities WCO-join systems take from their
  /// catalogs), or with `use_ri_order` (RM) in GM's purely topological RI
  /// order (RiOrder). Phase: Enumerate.
  BaselineResult Evaluate(const PatternQuery& q,
                          const BaselineOptions& opts = {},
                          const OccurrenceSink& sink = nullptr,
                          bool use_ri_order = false) const;

 private:
  const Graph& graph_;
  std::vector<Bitmap> closure_fwd_;  // reachable-from sets (>= 1 edge)
  std::vector<Bitmap> closure_bwd_;  // reaching sets
};

}  // namespace rigpm

#endif  // RIGPM_BASELINE_WCOJ_ENGINE_H_
