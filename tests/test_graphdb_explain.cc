// Tests for the application helpers: ExplainQuery and Graph::MakeBidirected.

#include <gtest/gtest.h>

#include "engine/explain.h"
#include "graph/generators.h"
#include "query/pattern_parser.h"
#include "test_util.h"

namespace rigpm {
namespace {

using ::rigpm::testing::PaperExample;

// --- ExplainQuery.

TEST(Explain, ReportsPipelineStages) {
  Graph g = PaperExample::MakeGraph();
  GmEngine engine(g);
  std::string report = ExplainQuery(engine, PaperExample::MakeQuery());
  EXPECT_NE(report.find("EXPLAIN"), std::string::npos);
  EXPECT_NE(report.find("irreducible"), std::string::npos);
  EXPECT_NE(report.find("candidates"), std::string::npos);
  EXPECT_NE(report.find("RIG"), std::string::npos);
  EXPECT_NE(report.find("order"), std::string::npos);
  // The FB column for query node 0 must show the pruned cardinality (2).
  EXPECT_NE(report.find("q0 (label 0)  3  "), std::string::npos);
}

TEST(Explain, ReportsTransitiveReduction) {
  Graph g = PaperExample::MakeGraph();
  GmEngine engine(g);
  auto q = ParsePattern("(a:0)->(b:1), (b)=>(c:2), (a)=>(c)");
  ASSERT_TRUE(q.has_value());
  std::string report = ExplainQuery(engine, *q);
  EXPECT_NE(report.find("removed 1 transitive"), std::string::npos);
}

TEST(Explain, ReportsEmptyAnswerShortcut) {
  Graph g = Graph::FromEdges({0, 1}, {{0, 1}});
  GmEngine engine(g);
  auto q = ParsePattern("(a:1)->(b:0)");  // reversed direction: empty
  ASSERT_TRUE(q.has_value());
  std::string report = ExplainQuery(engine, *q);
  EXPECT_NE(report.find("EMPTY"), std::string::npos);
}

// --- MakeBidirected.

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
