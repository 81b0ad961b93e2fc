#include "graph/interval_labels.h"

namespace rigpm {

IntervalLabels::IntervalLabels(const Condensation& cond) {
  const uint32_t nc = cond.NumComponents();
  std::vector<uint32_t>& begin = begin_.Mutable();
  std::vector<uint32_t>& end = end_.Mutable();
  begin.assign(nc, 0);
  end.assign(nc, 0);

  // Iterative DFS over the condensation DAG, restarting at every unvisited
  // component in id order, which is topological, so sources are natural
  // roots.
  std::vector<uint8_t> visited(nc, 0);
  std::vector<std::pair<uint32_t, uint32_t>> stack;  // (comp, next child pos)
  uint32_t clock = 0;
  for (uint32_t root = 0; root < nc; ++root) {
    if (visited[root]) continue;
    visited[root] = 1;
    begin[root] = clock++;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      uint32_t c = stack.back().first;
      auto succ = cond.Successors(c);
      bool descended = false;
      while (stack.back().second < succ.size()) {
        uint32_t child = succ[stack.back().second++];
        if (!visited[child]) {
          visited[child] = 1;
          begin[child] = clock++;
          stack.emplace_back(child, 0);
          descended = true;
          break;
        }
      }
      if (!descended) {
        end[c] = clock++;
        stack.pop_back();
      }
    }
  }
}

void IntervalLabels::Serialize(ByteSink& sink) const {
  sink.WriteSpan<uint32_t>(begin_);
  sink.WriteSpan<uint32_t>(end_);
}

IntervalLabels IntervalLabels::Deserialize(ByteSource& src) {
  IntervalLabels labels;
  labels.storage_ = src.storage();  // keeps a zero-copy mapping alive
  src.ReadSpan(&labels.begin_);
  src.ReadSpan(&labels.end_);
  if (!src.ok()) return IntervalLabels();
  if (labels.end_.size() != labels.begin_.size()) {
    src.Fail("interval label snapshot structure is inconsistent");
    return IntervalLabels();
  }
  return labels;
}

}  // namespace rigpm
