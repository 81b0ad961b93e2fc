#include "graph/scc.h"

#include <algorithm>
#include <cassert>

namespace rigpm {

Condensation::Condensation(const Graph& g) {
  const uint32_t n = g.NumNodes();
  std::vector<uint32_t>& component = component_.Mutable();
  component.assign(n, static_cast<uint32_t>(-1));

  // Iterative Tarjan. `index` / `lowlink` per node; explicit DFS stack keeps
  // (node, next-child-offset) frames to avoid recursion on deep graphs.
  constexpr uint32_t kUnvisited = static_cast<uint32_t>(-1);
  std::vector<uint32_t> index(n, kUnvisited);
  std::vector<uint32_t> lowlink(n, 0);
  std::vector<uint8_t> on_stack(n, 0);
  std::vector<NodeId> scc_stack;
  std::vector<std::pair<NodeId, uint32_t>> dfs_stack;
  uint32_t next_index = 0;
  uint32_t next_comp = 0;  // assigned in reverse topological order

  for (NodeId root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    dfs_stack.emplace_back(root, 0);
    index[root] = lowlink[root] = next_index++;
    scc_stack.push_back(root);
    on_stack[root] = 1;
    while (!dfs_stack.empty()) {
      auto& [v, child_pos] = dfs_stack.back();
      auto neighbors = g.OutNeighbors(v);
      if (child_pos < neighbors.size()) {
        NodeId w = neighbors[child_pos++];
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          scc_stack.push_back(w);
          on_stack[w] = 1;
          dfs_stack.emplace_back(w, 0);
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      } else {
        if (lowlink[v] == index[v]) {
          // v is the root of an SCC; pop it off the component stack.
          while (true) {
            NodeId w = scc_stack.back();
            scc_stack.pop_back();
            on_stack[w] = 0;
            component[w] = next_comp;
            if (w == v) break;
          }
          ++next_comp;
        }
        NodeId finished = v;
        dfs_stack.pop_back();
        if (!dfs_stack.empty()) {
          NodeId parent = dfs_stack.back().first;
          lowlink[parent] = std::min(lowlink[parent], lowlink[finished]);
        }
      }
    }
  }
  num_components_ = next_comp;

  // Tarjan numbers components in reverse topological order (every successor
  // of a component is finished first). Renumber so that component ids are a
  // topological order: successors get strictly larger ids.
  for (NodeId v = 0; v < n; ++v) {
    component[v] = num_components_ - 1 - component[v];
  }

  std::vector<uint32_t> comp_size(num_components_, 0);
  std::vector<uint8_t>& cyclic = cyclic_.Mutable();
  cyclic.assign(num_components_, 0);
  for (NodeId v = 0; v < n; ++v) {
    ++comp_size[component[v]];
  }
  for (uint32_t c = 0; c < num_components_; ++c) {
    if (comp_size[c] > 1) cyclic[c] = 1;
  }

  // Cross-component DAG edges (deduplicated); self-loops mark cyclic comps.
  std::vector<std::pair<uint32_t, uint32_t>> dag_edges;
  for (NodeId v = 0; v < n; ++v) {
    uint32_t cv = component[v];
    for (NodeId w : g.OutNeighbors(v)) {
      uint32_t cw = component[w];
      if (cv == cw) {
        if (v == w) cyclic[cv] = 1;
        continue;
      }
      assert(cv < cw);  // topological numbering
      dag_edges.emplace_back(cv, cw);
    }
  }
  std::sort(dag_edges.begin(), dag_edges.end());
  dag_edges.erase(std::unique(dag_edges.begin(), dag_edges.end()),
                  dag_edges.end());

  std::vector<uint64_t>& dag_offsets = dag_offsets_.Mutable();
  std::vector<uint32_t>& dag_targets = dag_targets_.Mutable();
  dag_offsets.assign(num_components_ + 1, 0);
  for (const auto& [c, d] : dag_edges) ++dag_offsets[c + 1];
  for (uint32_t c = 0; c < num_components_; ++c) {
    dag_offsets[c + 1] += dag_offsets[c];
  }
  dag_targets.resize(dag_edges.size());
  std::vector<uint64_t> pos(dag_offsets.begin(), dag_offsets.end() - 1);
  for (const auto& [c, d] : dag_edges) dag_targets[pos[c]++] = d;
}

void Condensation::Serialize(ByteSink& sink) const {
  sink.WriteU32(num_components_);
  sink.WriteSpan<uint32_t>(component_);
  sink.WriteSpan<uint8_t>(cyclic_);
  sink.WriteSpan<uint64_t>(dag_offsets_);
  sink.WriteSpan<uint32_t>(dag_targets_);
}

Condensation Condensation::Deserialize(ByteSource& src) {
  Condensation c;
  c.storage_ = src.storage();  // keeps a zero-copy mapping alive
  c.num_components_ = src.ReadU32();
  src.ReadSpan(&c.component_);
  src.ReadSpan(&c.cyclic_);
  src.ReadSpan(&c.dag_offsets_);
  src.ReadSpan(&c.dag_targets_);
  if (!src.ok()) return Condensation();
  const uint32_t nc = c.num_components_;
  if (c.cyclic_.size() != nc ||
      c.dag_offsets_.size() != static_cast<uint64_t>(nc) + 1 ||
      c.dag_offsets_.front() != 0 ||
      c.dag_offsets_.back() != c.dag_targets_.size()) {
    src.Fail("condensation snapshot structure is inconsistent");
    return Condensation();
  }
  for (uint32_t comp : c.component_) {
    if (comp >= nc) {
      src.Fail("condensation snapshot component id out of range");
      return Condensation();
    }
  }
  for (uint32_t i = 0; i + 1 < c.dag_offsets_.size(); ++i) {
    if (c.dag_offsets_[i] > c.dag_offsets_[i + 1]) {
      src.Fail("condensation snapshot offsets are not monotone");
      return Condensation();
    }
  }
  // Component ids must be a topological order: every reader (the BFL and
  // BFS searches, the batch prunes' sweeps) relies on each DAG edge going to
  // a larger id.
  for (uint32_t comp = 0; comp < nc; ++comp) {
    for (uint32_t d : c.Successors(comp)) {
      if (d >= nc) {
        src.Fail("condensation snapshot DAG target out of range");
        return Condensation();
      }
      if (d <= comp) {
        src.Fail("condensation snapshot DAG edge is not topological");
        return Condensation();
      }
    }
  }
  return c;
}

}  // namespace rigpm
