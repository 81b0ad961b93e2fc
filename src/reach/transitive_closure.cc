#include "reach/transitive_closure.h"

namespace rigpm {

TransitiveClosure::TransitiveClosure(const Graph& g) : cond_(g) {
  const uint32_t nc = cond_.NumComponents();
  reach_.resize(nc);
  // Component ids are topological; process sinks first so every successor's
  // closure is ready when we merge it.
  for (uint32_t c = nc; c-- > 0;) {
    Bitmap& r = reach_[c];
    for (uint32_t d : cond_.Successors(c)) {
      r.Add(d);
      r.OrWith(reach_[d]);
    }
  }
}

bool TransitiveClosure::Reaches(NodeId u, NodeId v) const {
  uint32_t cu = cond_.Component(u);
  uint32_t cv = cond_.Component(v);
  if (cu == cv) return cond_.IsCyclic(cu);
  return reach_[cu].Contains(cv);
}

Bitmap TransitiveClosure::ReachableNodeSet(NodeId u, const Graph& g) const {
  uint32_t cu = cond_.Component(u);
  Bitmap out;
  // Nodes in reachable components...
  std::vector<uint32_t> comps = reach_[cu].ToVector();
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    uint32_t cv = cond_.Component(v);
    if (cv == cu) {
      if (cond_.IsCyclic(cu)) out.Add(v);
    } else if (reach_[cu].Contains(cv)) {
      out.Add(v);
    }
  }
  return out;
}

size_t TransitiveClosure::MemoryBytes() const {
  size_t bytes = 0;
  for (const Bitmap& b : reach_) bytes += b.MemoryBytes();
  return bytes;
}

}  // namespace rigpm
