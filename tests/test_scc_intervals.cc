#include <gtest/gtest.h>

#include <random>

#include "graph/generators.h"
#include "graph/interval_labels.h"
#include "graph/scc.h"
#include "test_util.h"

namespace rigpm {
namespace {

using ::rigpm::testing::SlowReaches;

TEST(Condensation, SingleCycleCollapses) {
  // 0 -> 1 -> 2 -> 0, plus 2 -> 3.
  Graph g = Graph::FromEdges({0, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 0}, {2, 3}});
  Condensation c(g);
  EXPECT_EQ(c.NumComponents(), 2u);
  EXPECT_EQ(c.Component(0), c.Component(1));
  EXPECT_EQ(c.Component(1), c.Component(2));
  EXPECT_NE(c.Component(0), c.Component(3));
  EXPECT_TRUE(c.IsCyclic(c.Component(0)));
  EXPECT_FALSE(c.IsCyclic(c.Component(3)));
}

TEST(Condensation, SelfLoopIsCyclic) {
  Graph g = Graph::FromEdges({0, 0}, {{0, 0}, {0, 1}});
  Condensation c(g);
  EXPECT_TRUE(c.IsCyclic(c.Component(0)));
  EXPECT_FALSE(c.IsCyclic(c.Component(1)));
}

TEST(Condensation, ComponentIdsAreTopological) {
  Graph g = GeneratePowerLaw({.num_nodes = 500, .num_edges = 3000,
                              .num_labels = 3, .seed = 77});
  Condensation c(g);
  for (uint32_t comp = 0; comp < c.NumComponents(); ++comp) {
    for (uint32_t succ : c.Successors(comp)) {
      EXPECT_LT(comp, succ);
    }
  }
}

TEST(Condensation, DagGraphHasSingletonComponents) {
  Graph g = GenerateRandomDag({.num_nodes = 200, .num_edges = 800,
                               .num_labels = 3, .seed = 5});
  Condensation c(g);
  EXPECT_EQ(c.NumComponents(), g.NumNodes());
  for (uint32_t comp = 0; comp < c.NumComponents(); ++comp) {
    EXPECT_FALSE(c.IsCyclic(comp));
  }
}

// Property: two nodes are in the same SCC iff they reach each other.
class CondensationPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CondensationPropertyTest, MutualReachabilityDefinesComponents) {
  Graph g = GeneratePowerLaw({.num_nodes = 60, .num_edges = 180,
                              .num_labels = 3, .seed = GetParam()});
  Condensation c(g);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = u + 1; v < g.NumNodes(); ++v) {
      bool mutual = SlowReaches(g, u, v) && SlowReaches(g, v, u);
      EXPECT_EQ(c.Component(u) == c.Component(v), mutual)
          << "u=" << u << " v=" << v;
    }
  }
  // Cyclic flag == node reaches itself.
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_EQ(c.IsCyclic(c.Component(u)), SlowReaches(g, u, u)) << u;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CondensationPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// Interval labels: the negative cut must never contradict true reachability,
// and the positive cut must never claim a false path.
bool NegativeCut(const IntervalLabels& labels, uint32_t cu, uint32_t cv) {
  return labels.CompEnd(cu) < labels.CompBegin(cv);
}
bool PositiveCut(const IntervalLabels& labels, uint32_t cu, uint32_t cv) {
  return labels.CompBegin(cu) < labels.CompBegin(cv) &&
         labels.CompEnd(cv) <= labels.CompEnd(cu);
}

class IntervalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalPropertyTest, CutsAreSound) {
  Graph g = GeneratePowerLaw({.num_nodes = 80, .num_edges = 240,
                              .num_labels = 3, .seed = GetParam() * 13});
  Condensation c(g);
  IntervalLabels labels(c);
  ASSERT_EQ(labels.NumComponents(), c.NumComponents());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      const uint32_t cu = c.Component(u);
      const uint32_t cv = c.Component(v);
      if (cu == cv) continue;
      bool reaches = SlowReaches(g, u, v);
      if (NegativeCut(labels, cu, cv)) {
        EXPECT_FALSE(reaches) << u << "->" << v;
      }
      if (PositiveCut(labels, cu, cv)) {
        EXPECT_TRUE(reaches) << u << "->" << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(IntervalLabels, PositiveCutCoversTreePaths) {
  // A path graph: every ancestor/descendant pair is decided positively.
  Graph g = Graph::FromEdges({0, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 3}});
  Condensation c(g);
  IntervalLabels labels(c);
  auto comp = [&](NodeId v) { return c.Component(v); };
  EXPECT_TRUE(PositiveCut(labels, comp(0), comp(3)));
  EXPECT_TRUE(PositiveCut(labels, comp(1), comp(2)));
  EXPECT_FALSE(PositiveCut(labels, comp(3), comp(0)));
}

}  // namespace
}  // namespace rigpm
