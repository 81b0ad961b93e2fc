#ifndef RIGPM_ENGINE_GM_ENGINE_H_
#define RIGPM_ENGINE_GM_ENGINE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "engine/eval_context.h"
#include "engine/gm_options.h"
#include "engine/pipeline.h"
#include "enumerate/mjoin.h"
#include "graph/interval_labels.h"
#include "order/search_order.h"
#include "query/pattern_query.h"
#include "reach/reachability.h"
#include "rig/rig_builder.h"

namespace rigpm {

/// Receives occurrences from EvaluateBatch, tagged with the index of the
/// query (into the batch span) that produced them. Invoked concurrently from
/// worker threads; must be thread-safe. Returning false stops the
/// enumeration of THAT query only — other queries in the batch continue.
using BatchOccurrenceSink =
    std::function<bool(size_t query_index, const Occurrence& occurrence)>;

/// The end-to-end GM graph pattern matching engine (Sections 3-6), built as
/// a staged query pipeline: transitive reduction -> (pre-filter) -> double
/// simulation -> RIG -> search order -> MJoin, with each stage an explicit
/// Phase object (engine/pipeline.h). One engine instance amortizes the
/// reachability index and interval labels across many queries on the same
/// data graph; per-thread mutable state lives in EvalContexts, so a single
/// engine serves concurrent queries (Evaluate from several threads, or
/// EvaluateBatch) without locking.
class GmEngine {
 public:
  /// Builds the reachability index (`reach`, default BFL as in the paper)
  /// and the DFS interval labels over the index's condensation of `g`. The
  /// graph must outlive the engine.
  explicit GmEngine(const Graph& g, ReachKind reach = ReachKind::kBfl);

  /// Warm start: adopts a pre-built reachability index and interval labels
  /// (typically deserialized from a snapshot, storage/snapshot.h) instead
  /// of rebuilding them from `g`. Index construction cost drops to zero;
  /// reach_build_ms() reports 0.
  GmEngine(const Graph& g, std::unique_ptr<ReachabilityIndex> reach,
           std::unique_ptr<IntervalLabels> intervals);

  GmEngine(const GmEngine&) = delete;
  GmEngine& operator=(const GmEngine&) = delete;

  const Graph& graph() const { return graph_; }
  const ReachabilityIndex& reach() const { return *reach_; }
  const IntervalLabels& intervals() const { return *intervals_; }
  double reach_build_ms() const { return reach_build_ms_; }

  /// The shared phase chain queries run through (read-only introspection).
  const QueryPipeline& pipeline() const { return pipeline_; }

  /// Creates a worker context over this engine's shared read-only inputs.
  /// Make one per thread; reuse it across queries.
  EvalContext MakeContext() const {
    return EvalContext(graph_, *reach_, intervals_.get());
  }

  /// Evaluates `query`, streaming every occurrence into `sink` (may be
  /// null to just count) on the calling thread. Returns statistics; see
  /// GmResult.
  GmResult Evaluate(const PatternQuery& query, const GmOptions& opts = {},
                    const OccurrenceSink& sink = nullptr) const;

  /// Same, but reusing the caller's per-thread context (its pipeline state
  /// and serving stats). This is the hot-path entry point for serving.
  GmResult Evaluate(EvalContext& ctx, const PatternQuery& query,
                    const GmOptions& opts = {},
                    const OccurrenceSink& sink = nullptr) const;

  /// Evaluates a batch of independent queries concurrently over the shared
  /// reachability index: opts.num_threads workers (0 = hardware, 1 =
  /// sequential), one reusable EvalContext each, pulling queries from the
  /// batch work-queue. Each query runs Evaluate() inside its worker, so
  /// per-query results are bit-identical to a sequential run; only the
  /// cross-query schedule is concurrent. Returns one GmResult per query, in
  /// input order.
  std::vector<GmResult> EvaluateBatch(
      std::span<const PatternQuery> queries, const GmOptions& opts = {},
      const BatchOccurrenceSink& sink = nullptr) const;

  /// Convenience: materializes (up to opts.limit) occurrences, in
  /// enumeration order.
  std::vector<Occurrence> EvaluateCollect(const PatternQuery& query,
                                          const GmOptions& opts = {},
                                          GmResult* result = nullptr) const;

  /// Builds the RIG for a query without enumerating (Fig. 13 measurements):
  /// runs the matching chain only.
  Rig BuildRigOnly(const PatternQuery& query, const GmOptions& opts,
                   GmResult* result) const;

 private:
  const Graph& graph_;
  std::unique_ptr<ReachabilityIndex> reach_;
  std::unique_ptr<IntervalLabels> intervals_;
  double reach_build_ms_ = 0.0;
  QueryPipeline pipeline_;           // full chain, shared by all workers
  QueryPipeline matching_pipeline_;  // Reduce..BuildRig, for BuildRigOnly
};

}  // namespace rigpm

#endif  // RIGPM_ENGINE_GM_ENGINE_H_
