#ifndef RIGPM_TESTS_TEST_UTIL_H_
#define RIGPM_TESTS_TEST_UTIL_H_

#include <functional>
#include <set>
#include <vector>

#include "graph/graph.h"
#include "query/pattern_query.h"

namespace rigpm::testing {

/// The running example of the paper (Fig. 2): data graph G with labels
/// a/b/c and the hybrid query Q = { A -child-> B, A -child-> C,
/// B -desc-> C }. The node ids below follow the paper's subscripts:
///   a0=0 a1=1 a2=2   b0=3 b1=4 b2=5 b3=6   c0=7 c1=8 c2=9
/// The construction reproduces Table 1 (F/B/FB simulations), the refined
/// RIG of Fig. 2(e) (including the redundant edge (b2, c1)), and the
/// four-tuple answer {(a1,b0,c0), (a1,b0,c1), (a2,b2,c0), (a2,b2,c2)}.
struct PaperExample {
  static constexpr NodeId a0 = 0, a1 = 1, a2 = 2;
  static constexpr NodeId b0 = 3, b1 = 4, b2 = 5, b3 = 6;
  static constexpr NodeId c0 = 7, c1 = 8, c2 = 9;
  static constexpr LabelId kLabelA = 0, kLabelB = 1, kLabelC = 2;

  static Graph MakeGraph() {
    std::vector<LabelId> labels = {0, 0, 0, 1, 1, 1, 1, 2, 2, 2};
    std::vector<std::pair<NodeId, NodeId>> edges = {
        {a0, b3}, {a1, b0}, {a2, b2},            // a -> b children
        {a1, c0}, {a1, c1}, {a2, c0}, {a2, c2},  // a -> c children
        {b0, c0}, {b0, c1},                      // b0 reaches c0, c1
        {b1, c0}, {b1, c2},                      // b1 reaches c0, c2
        {b2, b0}, {b2, c2},  // b2 reaches c0, c1 (via b0), c2
    };
    return Graph::FromEdges(std::move(labels), std::move(edges));
  }

  static PatternQuery MakeQuery() {
    // Query nodes: A=0, B=1, C=2.
    return PatternQuery::FromParts(
        {kLabelA, kLabelB, kLabelC},
        {{0, 1, EdgeKind::kChild},
         {0, 2, EdgeKind::kChild},
         {1, 2, EdgeKind::kDescendant}});
  }

  static std::set<std::vector<NodeId>> ExpectedAnswer() {
    return {{a1, b0, c0}, {a1, b0, c1}, {a2, b2, c0}, {a2, b2, c2}};
  }
};

/// Exhaustive homomorphism enumeration by definition (Definition 2.5):
/// assigns query nodes in id order over the nodes of their label, found by
/// scanning Label(v) rather than the label index, and checks every edge
/// with adjacency / DFS reachability. Exponential; use only on
/// tiny graphs. This is the oracle for the differential property tests.
std::set<std::vector<NodeId>> BruteForceAnswer(const Graph& g,
                                               const PatternQuery& q);

/// Plain DFS reachability (>= 1 edge), independent of src/reach.
bool SlowReaches(const Graph& g, NodeId u, NodeId v);

/// Depth-limited reachability: a path of 1..max_hops edges from u to v.
bool SlowReachesBounded(const Graph& g, NodeId u, NodeId v,
                        uint32_t max_hops);

/// `g` plus a self-loop on every `every`-th node, so the condensation holds
/// cyclic singletons next to acyclic ones (and, in power-law graphs,
/// multi-node components).
Graph WithSelfLoops(const Graph& g, uint32_t every);

/// Runs `check` in a forked child and returns true iff it returned true
/// within `seconds`. A child still running then is killed and counts as
/// false, so a reader that blocks (say, in the open of a FIFO) fails a
/// test instead of hanging it, and one that crashes fails it instead of
/// ending the test binary. `check` reports through its return value and
/// stderr only.
bool ChildReturnsTrueWithin(const std::function<bool()>& check, int seconds);

}  // namespace rigpm::testing

#endif  // RIGPM_TESTS_TEST_UTIL_H_
