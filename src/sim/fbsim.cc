#include "sim/fbsim.h"

#include <utility>

#include "query/dag_decomposition.h"
#include "sim/fbsim_bas.h"
#include "sim/fbsim_dag.h"

namespace rigpm {

const char* SimAlgorithmName(SimAlgorithm a) {
  switch (a) {
    case SimAlgorithm::kBas:
      return "Gra";
    case SimAlgorithm::kDag:
      return "Dag";
    case SimAlgorithm::kDagMap:
      return "DagMap";
  }
  return "?";
}

CandidateSets FBSim(const MatchContext& ctx, const PatternQuery& q,
                    CandidateSets seed, const SimOptions& opts,
                    SimStats* stats) {
  DagDecomposition decomp = DecomposeDag(q);
  CandidateSets fb = std::move(seed);

  if (decomp.IsDagQuery()) {
    FBSimDagPasses(ctx, q, decomp.topo_order, decomp.dag_edges, &fb, opts,
                   stats);
    return fb;
  }

  // Dag+Δ: alternate DAG passes with back-edge sweeps. Inner DAG passes run
  // with the caller's pass budget; the outer loop iterates until neither
  // phase changes FB (or the pass budget is exhausted).
  int outer = 0;
  bool changed = true;
  while (changed && (opts.max_passes == 0 || outer < opts.max_passes)) {
    ++outer;
    changed = FBSimDagPasses(ctx, q, decomp.topo_order, decomp.dag_edges, &fb,
                             opts, stats);
    for (QueryEdgeId e : decomp.back_edges) {
      const QueryEdge& edge = q.Edge(e);
      changed |=
          ForwardPruneEdge(ctx, edge, &fb[edge.from], fb[edge.to], opts, stats);
      changed |= BackwardPruneEdge(ctx, edge, fb[edge.from], &fb[edge.to],
                                   opts, stats);
    }
  }
  return fb;
}

CandidateSets ComputeDoubleSimulation(const MatchContext& ctx,
                                      const PatternQuery& q,
                                      CandidateSets seed,
                                      SimAlgorithm algorithm, SimOptions opts,
                                      SimStats* stats) {
  switch (algorithm) {
    case SimAlgorithm::kBas:
      // The untuned baseline: no change flags, element-at-a-time checks.
      opts.use_change_flags = false;
      opts.child_check = ChildCheckMode::kBitIter;
      opts.batch_reachability = false;
      return FBSimBas(ctx, q, std::move(seed), opts, stats);
    case SimAlgorithm::kDag:
      opts.use_change_flags = false;
      opts.child_check = ChildCheckMode::kBitIter;
      opts.batch_reachability = false;
      return FBSim(ctx, q, std::move(seed), opts, stats);
    case SimAlgorithm::kDagMap:
      // Tuned variant: change flags on; the child-check mode and batch
      // reachability settings are taken from `opts` (Fig. 12a compares the
      // check modes under this algorithm).
      opts.use_change_flags = true;
      return FBSim(ctx, q, std::move(seed), opts, stats);
  }
  return {};
}

}  // namespace rigpm
