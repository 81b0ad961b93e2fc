// Tests for Graph::MakeBidirected, the helper that gives a directed data
// graph the reverse of every edge (bench_fig17_rm runs on such a graph).

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph.h"

namespace rigpm {
namespace {

TEST(MakeBidirected, AddsReverseEdges) {
  Graph g = Graph::FromEdges({0, 1, 2}, {{0, 1}, {1, 2}});
  Graph b = Graph::MakeBidirected(g);
  EXPECT_EQ(b.NumEdges(), 4u);
  EXPECT_TRUE(b.HasEdge(1, 0));
  EXPECT_TRUE(b.HasEdge(2, 1));
  EXPECT_FALSE(b.HasEdge(0, 2));
  // Idempotent on already-bidirected graphs.
  Graph bb = Graph::MakeBidirected(b);
  EXPECT_EQ(bb.NumEdges(), b.NumEdges());
}

TEST(MakeBidirected, PreservesLabels) {
  Graph g = GeneratePowerLaw({.num_nodes = 50, .num_edges = 150,
                              .num_labels = 4, .seed = 8});
  Graph b = Graph::MakeBidirected(g);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(b.Label(v), g.Label(v));
  }
}

}  // namespace
}  // namespace rigpm
