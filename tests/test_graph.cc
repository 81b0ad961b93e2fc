#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <sstream>

#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"

namespace rigpm {
namespace {

Graph Triangle() {
  // 0(a) -> 1(b) -> 2(c), 0 -> 2
  return Graph::FromEdges({0, 1, 2}, {{0, 1}, {1, 2}, {0, 2}});
}

TEST(Graph, BasicAccessors) {
  Graph g = Triangle();
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.NumLabels(), 3u);
  EXPECT_EQ(g.Label(1), 1u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.InDegree(2), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 1.0);
}

TEST(Graph, NeighborsAreSorted) {
  Graph g = Graph::FromEdges({0, 0, 0, 0}, {{0, 3}, {0, 1}, {0, 2}, {3, 0}});
  auto out = g.OutNeighbors(0);
  EXPECT_EQ(std::vector<NodeId>(out.begin(), out.end()),
            (std::vector<NodeId>{1, 2, 3}));
  auto in = g.InNeighbors(0);
  EXPECT_EQ(std::vector<NodeId>(in.begin(), in.end()),
            (std::vector<NodeId>{3}));
}

TEST(Graph, DuplicateEdgesRemoved) {
  Graph g = Graph::FromEdges({0, 0}, {{0, 1}, {0, 1}, {0, 1}});
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(Graph, SelfLoopsKept) {
  Graph g = Graph::FromEdges({0}, {{0, 0}});
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_TRUE(g.HasEdge(0, 0));
}

TEST(Graph, InvertedLists) {
  Graph g = Graph::FromEdges({1, 0, 1, 0}, {{0, 1}});
  EXPECT_EQ(g.LabelBitmap(1).ToVector(), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(g.LabelCount(0), 2u);
  EXPECT_EQ(g.MaxLabelListSize(), 2u);
  EXPECT_TRUE(g.LabelBitmap(1).Contains(2));
  EXPECT_FALSE(g.LabelBitmap(1).Contains(1));
}

TEST(Graph, CsrRowsAreSortedAndMirrorEachOther) {
  // Every reader binary-searches or merges the rows, so each must be
  // strictly increasing, and the backward rows must hold exactly the
  // forward edges reversed.
  Graph g = GenerateErdosRenyi({.num_nodes = 200, .num_edges = 1000,
                                .num_labels = 5, .seed = 3});
  uint64_t in_total = 0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    auto out = g.OutNeighbors(v);
    auto in = g.InNeighbors(v);
    EXPECT_TRUE(std::adjacent_find(out.begin(), out.end(),
                                   std::greater_equal<NodeId>()) == out.end());
    EXPECT_TRUE(std::adjacent_find(in.begin(), in.end(),
                                   std::greater_equal<NodeId>()) == in.end());
    for (NodeId u : in) EXPECT_TRUE(g.HasEdge(u, v)) << u << "->" << v;
    in_total += in.size();
  }
  EXPECT_EQ(in_total, g.NumEdges());
}

TEST(GraphBuilder, BuildsIncrementally) {
  GraphBuilder b;
  NodeId x = b.AddNode(2);
  NodeId y = b.AddNode(0);
  b.AddEdge(x, y);
  EXPECT_EQ(b.NumNodes(), 2u);
  EXPECT_EQ(b.NumEdges(), 1u);
  Graph g = std::move(b).Build();
  EXPECT_EQ(g.Label(x), 2u);
  EXPECT_TRUE(g.HasEdge(x, y));
  EXPECT_EQ(g.NumLabels(), 3u);  // labels are dense up to the max used
}

TEST(GraphIo, RoundTrip) {
  Graph g = GeneratePowerLaw({.num_nodes = 100, .num_edges = 400,
                              .num_labels = 4, .seed = 17});
  std::stringstream ss;
  WriteGraph(g, ss);
  std::string error;
  auto parsed = ReadGraph(ss, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->NumNodes(), g.NumNodes());
  EXPECT_EQ(parsed->NumEdges(), g.NumEdges());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(parsed->Label(v), g.Label(v));
    auto a = g.OutNeighbors(v);
    auto b = parsed->OutNeighbors(v);
    EXPECT_EQ(std::vector<NodeId>(a.begin(), a.end()),
              std::vector<NodeId>(b.begin(), b.end()));
  }
}

TEST(GraphIo, RejectsMalformedInput) {
  std::string error;
  {
    std::istringstream in("v 0 0\ne 0 5\n");
    EXPECT_FALSE(ReadGraph(in, &error).has_value());
    EXPECT_NE(error.find("undeclared node"), std::string::npos);
  }
  {
    std::istringstream in("v 1 0\n");  // non-dense id
    EXPECT_FALSE(ReadGraph(in, &error).has_value());
  }
  {
    std::istringstream in("x nonsense\n");
    EXPECT_FALSE(ReadGraph(in, &error).has_value());
  }
}

TEST(GraphIo, CommentsAndHeaderAccepted) {
  std::istringstream in("# a comment\nt 2 1\nv 0 0\nv 1 1\ne 0 1\n");
  auto g = ReadGraph(in);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->NumNodes(), 2u);
  EXPECT_TRUE(g->HasEdge(0, 1));
}

// --- Generators.

TEST(Generators, ErdosRenyiHitsTargets) {
  GeneratorOptions opts{.num_nodes = 500, .num_edges = 2500, .num_labels = 7,
                        .seed = 5};
  Graph g = GenerateErdosRenyi(opts);
  EXPECT_EQ(g.NumNodes(), 500u);
  EXPECT_EQ(g.NumEdges(), 2500u);
  EXPECT_EQ(g.NumLabels(), 7u);
  // Deterministic per seed.
  Graph g2 = GenerateErdosRenyi(opts);
  EXPECT_EQ(g2.NumEdges(), g.NumEdges());
  EXPECT_EQ(g2.Label(123), g.Label(123));
}

TEST(Generators, PowerLawIsSkewed) {
  Graph g = GeneratePowerLaw({.num_nodes = 2000, .num_edges = 10000,
                              .num_labels = 5, .seed = 9});
  uint32_t max_in = 0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    max_in = std::max(max_in, g.InDegree(v));
  }
  // Preferential attachment: the hub in-degree far exceeds both the average
  // degree (5) and the uniform-random hub (~16 at these parameters).
  EXPECT_GT(max_in, 30u);
}

TEST(Generators, RandomDagIsAcyclic) {
  Graph g = GenerateRandomDag({.num_nodes = 300, .num_edges = 2000,
                               .num_labels = 6, .seed = 21});
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (NodeId w : g.OutNeighbors(v)) {
      EXPECT_LT(v, w);  // rank-ordered edges cannot close a cycle
    }
  }
}

TEST(Generators, LayeredDagConnectsConsecutiveLayers) {
  Graph g = GenerateLayeredDag({.num_nodes = 400, .num_edges = 1500,
                                .num_labels = 4, .seed = 2},
                               /*layers=*/8, /*skip_prob=*/0.2);
  EXPECT_GT(g.NumEdges(), 0u);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (NodeId w : g.OutNeighbors(v)) EXPECT_LT(v, w);
  }
}

TEST(Generators, EveryLabelOccurs) {
  Graph g = GenerateErdosRenyi({.num_nodes = 100, .num_edges = 300,
                                .num_labels = 50, .seed = 31,
                                .label_zipf = 1.2});
  for (LabelId a = 0; a < g.NumLabels(); ++a) {
    EXPECT_GE(g.LabelCount(a), 1u) << "label " << a;
  }
}

TEST(Generators, ZipfSkewsLabelFrequencies) {
  Graph g = GenerateErdosRenyi({.num_nodes = 5000, .num_edges = 10000,
                                .num_labels = 10, .seed = 41,
                                .label_zipf = 1.5});
  EXPECT_GT(g.LabelCount(0), g.LabelCount(9) * 2);
}

}  // namespace
}  // namespace rigpm
