#ifndef RIGPM_REACH_BFS_REACHABILITY_H_
#define RIGPM_REACH_BFS_REACHABILITY_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "graph/scc.h"
#include "reach/reachability.h"

namespace rigpm {

/// Index-free reachability: answers each query with a BFS over the SCC
/// condensation DAG. Used as the correctness oracle in tests and as the
/// "no precomputation" point in the index-cost experiments.
///
/// Component ids are topological, so the search prunes any component whose
/// id exceeds the target's.
class BfsReachability : public ReachabilityIndex {
 public:
  explicit BfsReachability(const Graph& g);

  bool Reaches(NodeId u, NodeId v) const override;
  std::string Name() const override { return "BFS"; }
  size_t MemoryBytes() const override;
  const Condensation& condensation() const override { return cond_; }

 private:
  Condensation cond_;
  // Epoch-stamped visited marks avoid clearing between queries. The scratch
  // is shared by every worker holding the index, so queries that reach the
  // BFS serialize on the mutex (this engine is the no-index baseline; the
  // lock cost is noise next to the per-query BFS).
  mutable std::mutex scratch_mu_;
  mutable std::vector<uint32_t> visited_epoch_;
  mutable uint32_t epoch_ = 0;
  mutable std::vector<uint32_t> frontier_;
};

}  // namespace rigpm

#endif  // RIGPM_REACH_BFS_REACHABILITY_H_
