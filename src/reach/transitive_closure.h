#ifndef RIGPM_REACH_TRANSITIVE_CLOSURE_H_
#define RIGPM_REACH_TRANSITIVE_CLOSURE_H_

#include <cstddef>
#include <vector>

#include "bitmap/bitmap.h"
#include "graph/scc.h"
#include "reach/reachability.h"

namespace rigpm {

/// Fully materialized reachability: one bitmap of reachable components per
/// component, computed by merging successor sets in reverse topological
/// order. O(1) queries, O(|V|^2 / 64)-ish memory in the worst case — this is
/// the expensive precomputation the paper charges GraphflowDB with in
/// Fig. 18(a), and the oracle for property tests.
class TransitiveClosure : public ReachabilityIndex {
 public:
  explicit TransitiveClosure(const Graph& g);

  bool Reaches(NodeId u, NodeId v) const override;
  std::string Name() const override { return "TC"; }
  size_t MemoryBytes() const override;
  const Condensation& condensation() const override { return cond_; }

  /// Set of data nodes reachable from `u` (>= 1 edge), materialized on the
  /// fly from the component closure. Used by the WCOJ baseline to run
  /// edge-to-path queries on a "closure graph" the way the paper did for GF.
  Bitmap ReachableNodeSet(NodeId u, const Graph& g) const;

 private:
  Condensation cond_;
  std::vector<Bitmap> reach_;  // per component: reachable components
};

}  // namespace rigpm

#endif  // RIGPM_REACH_TRANSITIVE_CLOSURE_H_
