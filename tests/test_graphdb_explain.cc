// Tests for the application helpers: ExplainQuery and Graph::MakeBidirected.

#include <gtest/gtest.h>

#include <sstream>

#include "engine/explain.h"
#include "graph/generators.h"
#include "query/pattern_parser.h"
#include "query/query_generator.h"
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

// The FB(q) column is the engine's own cos(q), not a re-run of the
// simulation.
TEST(Explain, FbColumnIsTheRigNodeSets) {
  Graph g = GeneratePowerLaw({.num_nodes = 300, .num_edges = 900,
                              .num_labels = 4, .seed = 21});
  GmEngine engine(g);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    PatternQuery q = GenerateRandomQuery({.num_nodes = 5, .num_edges = 6,
                                          .num_labels = 4,
                                          .variant = QueryVariant::kHybrid,
                                          .seed = seed});
    std::string report = ExplainQuery(engine, q);
    GmResult result;
    Rig rig = engine.BuildRigOnly(q, GmOptions{}, &result);
    for (QueryNodeId v = 0; v < q.NumNodes(); ++v) {
      const std::string row = "             q" + std::to_string(v) +
                              " (label " + std::to_string(q.Label(v)) + ")  ";
      size_t at = report.find(row);
      ASSERT_NE(at, std::string::npos) << report;
      std::istringstream cells(report.substr(at + row.size()));
      uint64_t ms = 0, pre = 0, fb = 0;
      cells >> ms >> pre >> fb;
      EXPECT_EQ(fb, rig.Cos(v).Cardinality()) << "seed " << seed << "\n"
                                              << report;
      EXPECT_LE(fb, pre);
      EXPECT_LE(pre, ms);
    }
  }
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
