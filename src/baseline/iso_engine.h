#ifndef RIGPM_BASELINE_ISO_ENGINE_H_
#define RIGPM_BASELINE_ISO_ENGINE_H_

#include "baseline/baseline.h"
#include "enumerate/mjoin.h"
#include "graph/graph.h"
#include "query/pattern_query.h"

namespace rigpm {

/// ISO: backtracking subgraph isomorphism for child-edge-only queries
/// (Section 7.2, "Isomorphism vs homomorphism"). Enforces the injective
/// node mapping that distinguishes isomorphisms from the homomorphisms the
/// other engines compute, so its count never exceeds theirs. Candidate sets
/// are pruned with label, degree and neighborhood-label-frequency filters
/// (the standard candidate filters of the in-memory isomorphism algorithms
/// surveyed by [53]) and searched along GM's JO order over their sizes
/// (DataSearch). Returns kUnsupported for queries containing descendant
/// edges. Phases: Filter, Enumerate.
BaselineResult IsoEvaluate(const Graph& g, const PatternQuery& q,
                           const BaselineOptions& opts = {},
                           const OccurrenceSink& sink = nullptr);

}  // namespace rigpm

#endif  // RIGPM_BASELINE_ISO_ENGINE_H_
