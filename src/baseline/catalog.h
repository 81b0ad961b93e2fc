#ifndef RIGPM_BASELINE_CATALOG_H_
#define RIGPM_BASELINE_CATALOG_H_

#include <cstdint>

#include "baseline/baseline.h"
#include "graph/graph.h"

namespace rigpm {

/// Result of simulating the GraphflowDB catalog precomputation the paper
/// measures in Fig. 16(a) / Fig. 18(a).
struct CatalogResult {
  EvalStatus status = EvalStatus::kOk;
  double build_ms = 0.0;
  uint64_t entries = 0;  // cardinality entries materialized
};

/// Builds subgraph-cardinality statistics the way WCO-join optimizers do:
/// per-label node counts, labeled edge counts, and labeled two-edge (wedge)
/// counts in all orientations. The wedge pass enumerates
/// Σ_v deg_in(v)·deg_out(v) (+ deg_out², deg_in²) combinations, which blows
/// up on dense or label-rich graphs — reproducing the catalog costs and
/// out-of-memory failures the paper reports for GF.
///
/// `max_entries` is the memory budget in distinct statistics entries.
CatalogResult BuildCatalog(const Graph& g, uint64_t max_entries);

}  // namespace rigpm

#endif  // RIGPM_BASELINE_CATALOG_H_
