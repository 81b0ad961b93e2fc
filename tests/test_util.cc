#include "test_util.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>

namespace rigpm::testing {

bool SlowReaches(const Graph& g, NodeId u, NodeId v) {
  // Seed with u's successors so that u ≺ u requires an actual cycle.
  std::vector<uint8_t> seen(g.NumNodes(), 0);
  std::vector<NodeId> stack;
  for (NodeId w : g.OutNeighbors(u)) {
    if (w == v) return true;
    if (!seen[w]) {
      seen[w] = 1;
      stack.push_back(w);
    }
  }
  while (!stack.empty()) {
    NodeId x = stack.back();
    stack.pop_back();
    for (NodeId w : g.OutNeighbors(x)) {
      if (w == v) return true;
      if (!seen[w]) {
        seen[w] = 1;
        stack.push_back(w);
      }
    }
  }
  return false;
}

bool SlowReachesBounded(const Graph& g, NodeId u, NodeId v,
                        uint32_t max_hops) {
  // Level-by-level BFS from u, stopping after max_hops levels.
  std::vector<uint8_t> seen(g.NumNodes(), 0);
  std::vector<NodeId> frontier = {u};
  for (uint32_t depth = 0; depth < max_hops && !frontier.empty(); ++depth) {
    std::vector<NodeId> next;
    for (NodeId x : frontier) {
      for (NodeId w : g.OutNeighbors(x)) {
        if (w == v) return true;
        if (!seen[w]) {
          seen[w] = 1;
          next.push_back(w);
        }
      }
    }
    frontier = std::move(next);
  }
  return false;
}

Graph WithSelfLoops(const Graph& g, uint32_t every) {
  std::vector<LabelId> labels(g.NumNodes());
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    labels[v] = g.Label(v);
    for (NodeId w : g.OutNeighbors(v)) edges.emplace_back(v, w);
    if (v % every == 0) edges.emplace_back(v, v);
  }
  return Graph::FromEdges(std::move(labels), std::move(edges));
}

std::set<std::vector<NodeId>> BruteForceAnswer(const Graph& g,
                                               const PatternQuery& q) {
  std::set<std::vector<NodeId>> answer;
  const uint32_t n = q.NumNodes();
  std::vector<NodeId> assign(n, kInvalidNode);

  std::function<void(uint32_t)> recurse = [&](uint32_t i) {
    if (i == n) {
      answer.insert(assign);
      return;
    }
    // Candidates come from the labels, not from the label index under test.
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (g.Label(v) != q.Label(i)) continue;
      assign[i] = v;
      bool ok = true;
      // Check every edge whose endpoints are both assigned.
      for (const QueryEdge& e : q.Edges()) {
        if (e.from > i || e.to > i) continue;
        NodeId u = assign[e.from];
        NodeId w = assign[e.to];
        bool match;
        if (e.kind == EdgeKind::kChild) {
          match = g.HasEdge(u, w);
        } else if (e.max_hops > 0) {
          match = SlowReachesBounded(g, u, w, e.max_hops);
        } else {
          match = SlowReaches(g, u, w);
        }
        if (!match) {
          ok = false;
          break;
        }
      }
      if (ok) recurse(i + 1);
      assign[i] = kInvalidNode;
    }
  };
  recurse(0);
  return answer;
}

bool ChildReturnsTrueWithin(const std::function<bool()>& check, int seconds) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) ::_exit(check() ? 0 : 1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  int status = 0;
  while (::waitpid(pid, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      std::fprintf(stderr, "child still running after %d s: killed\n",
                   seconds);
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace rigpm::testing
