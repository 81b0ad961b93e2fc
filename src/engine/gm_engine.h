#ifndef RIGPM_ENGINE_GM_ENGINE_H_
#define RIGPM_ENGINE_GM_ENGINE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "engine/gm_options.h"
#include "enumerate/mjoin.h"
#include "order/search_order.h"
#include "query/pattern_query.h"
#include "reach/bfl_index.h"
#include "rig/rig_builder.h"

namespace rigpm {

/// Receives occurrences from EvaluateBatch, tagged with the index of the
/// query (into the batch span) that produced them. Invoked concurrently from
/// worker threads; must be thread-safe. Returning false stops the
/// enumeration of THAT query only — other queries in the batch continue.
using BatchOccurrenceSink =
    std::function<bool(size_t query_index, const Occurrence& occurrence)>;

/// The end-to-end GM graph pattern matching engine (Sections 3-6). Every
/// query runs the same six phases in order, each timed into
/// GmResult::phase_timings:
///   Reduce    — transitive reduction of the query (Section 3),
///   Prefilter — seed candidate sets: ms(q) or the Chen/Zeng pre-filter,
///   Simulate  — double simulation refines the seeds into cos(q),
///   BuildRig  — expand cos(q) into RIG edges (Algorithm 4),
///   Order     — search-order selection over RIG statistics (Section 5.2),
///   Enumerate — MJoin (Section 5).
/// An empty cos(q) proves the answer empty and stops after BuildRig. One
/// engine instance amortizes the reachability index across many queries on
/// the same data graph; an evaluation keeps all of its mutable state on its
/// own stack, so a single engine serves concurrent queries (Evaluate from
/// several threads, or EvaluateBatch) without locking.
class GmEngine {
 public:
  /// Builds the BFL reachability index over `g`, as the paper does. The
  /// graph must outlive the engine.
  explicit GmEngine(const Graph& g);

  /// Warm start: adopts a BFL index built over `g` earlier (typically
  /// deserialized from a snapshot, storage/snapshot.h) instead of
  /// rebuilding it. Index construction cost drops to zero;
  /// reach_build_ms() reports 0.
  GmEngine(const Graph& g, std::unique_ptr<BflIndex> reach);

  GmEngine(const GmEngine&) = delete;
  GmEngine& operator=(const GmEngine&) = delete;

  const Graph& graph() const { return graph_; }
  const BflIndex& reach() const { return *reach_; }
  double reach_build_ms() const { return reach_build_ms_; }

  /// Evaluates `query`, streaming every occurrence into `sink` (may be
  /// null to just count) on the calling thread. Returns statistics; see
  /// GmResult.
  GmResult Evaluate(const PatternQuery& query, const GmOptions& opts = {},
                    const OccurrenceSink& sink = nullptr) const;

  /// Evaluates a batch of independent queries concurrently over the shared
  /// reachability index: opts.num_threads workers (0 = hardware, 1 =
  /// sequential) pulling queries from the batch work-queue. Each query
  /// runs Evaluate() inside its worker, so per-query results are
  /// bit-identical to a sequential run; only the cross-query schedule is
  /// concurrent. Returns one GmResult per query, in input order.
  std::vector<GmResult> EvaluateBatch(
      std::span<const PatternQuery> queries, const GmOptions& opts = {},
      const BatchOccurrenceSink& sink = nullptr) const;

  /// Convenience: materializes (up to opts.limit) occurrences, in
  /// enumeration order.
  std::vector<Occurrence> EvaluateCollect(const PatternQuery& query,
                                          const GmOptions& opts = {},
                                          GmResult* result = nullptr) const;

 private:
  const Graph& graph_;
  std::unique_ptr<BflIndex> reach_;
  double reach_build_ms_ = 0.0;
};

}  // namespace rigpm

#endif  // RIGPM_ENGINE_GM_ENGINE_H_
