#ifndef RIGPM_BASELINE_DATA_SEARCH_H_
#define RIGPM_BASELINE_DATA_SEARCH_H_

#include <span>

#include "baseline/baseline.h"
#include "enumerate/mjoin.h"
#include "graph/graph.h"

namespace rigpm {

/// The data side of a DataSearch: per query node a candidate set, and for
/// descendant edges the materialized closure rows (reachable-from and
/// reaching sets per data node; empty when the query has no descendant
/// edge).
struct DataSearchSpace {
  const Graph& graph;
  std::span<const Bitmap* const> candidates;
  std::span<const Bitmap> reach_fwd = {};
  std::span<const Bitmap> reach_bwd = {};
  /// ISO's one-to-one constraint: a data node matches one query node only.
  bool injective = false;
};

/// The backtracking search ISO and the WCOJ engine share: a generic
/// worst-case-optimal join run on the data graph itself, one query node at
/// a time along `order`. Step i's candidates are the members of
/// candidates[q_i] adjacent to the node matched at every earlier step joined
/// to q_i (EarlierConstraints): along a child edge through the graph's CSR
/// rows, along a descendant edge through the closure rows. A loop on q_i is
/// checked on the candidate v itself: the edge v -> v for a child loop, v in
/// its own closure row for a descendant one. Counts into
/// result->num_occurrences up to opts.limit, stops early when the sink
/// returns false or, with kTimeout, once `clock` expires, and books the
/// search as phase Enumerate.
void DataSearch(const DataSearchSpace& space, const PatternQuery& q,
                std::span<const QueryNodeId> order,
                const BaselineOptions& opts, const OccurrenceSink& sink,
                RunClock* clock, BaselineResult* result);

}  // namespace rigpm

#endif  // RIGPM_BASELINE_DATA_SEARCH_H_
