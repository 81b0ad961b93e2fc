// Tests for bounded descendant edges (paths of length <= k): semantics,
// parser support, interaction with transitive reduction, and
// differential agreement of every engine.

#include <gtest/gtest.h>

#include <set>

#include "baseline/jm_engine.h"
#include "baseline/tm_engine.h"
#include "baseline/wcoj_engine.h"
#include "engine/gm_engine.h"
#include "graph/generators.h"
#include "query/pattern_parser.h"
#include "query/query_generator.h"
#include "query/transitive_reduction.h"
#include "test_util.h"

namespace rigpm {
namespace {

using ::rigpm::testing::BruteForceAnswer;
using ::rigpm::testing::SlowReachesBounded;

// Path graph 0 -> 1 -> 2 -> 3 -> 4, all label 0.
Graph PathGraph() {
  return Graph::FromEdges({0, 0, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
}

PatternQuery BoundedPair(uint32_t max_hops) {
  return PatternQuery::FromParts(
      {0, 0}, {{0, 1, EdgeKind::kDescendant, max_hops}});
}

TEST(Bounded, HopSemanticsOnPath) {
  Graph g = PathGraph();
  GmEngine engine(g);
  // k = 1: only the 4 direct edges. k = 2: + 3 two-hop pairs. Unbounded: 10.
  EXPECT_EQ(engine.Evaluate(BoundedPair(1)).num_occurrences, 4u);
  EXPECT_EQ(engine.Evaluate(BoundedPair(2)).num_occurrences, 7u);
  EXPECT_EQ(engine.Evaluate(BoundedPair(4)).num_occurrences, 10u);
  EXPECT_EQ(engine.Evaluate(BoundedPair(0)).num_occurrences, 10u);
  // A bound beyond the diameter is the same as unbounded.
  EXPECT_EQ(engine.Evaluate(BoundedPair(99)).num_occurrences, 10u);
}

TEST(Bounded, BoundOneEqualsChildSemantics) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Graph g = GeneratePowerLaw({.num_nodes = 80, .num_edges = 320,
                                .num_labels = 3, .seed = seed});
    GmEngine engine(g);
    PatternQuery child = GenerateRandomQuery(
        {.num_nodes = 4, .num_edges = 4, .num_labels = 3,
         .variant = QueryVariant::kChildOnly, .seed = seed + 50});
    // Retype every edge as a 1-bounded descendant edge.
    std::vector<QueryEdge> bounded_edges = child.Edges();
    for (QueryEdge& e : bounded_edges) {
      e.kind = EdgeKind::kDescendant;
      e.max_hops = 1;
    }
    PatternQuery bounded =
        PatternQuery::FromParts(child.Labels(), bounded_edges);
    auto a = engine.EvaluateCollect(child);
    auto b = engine.EvaluateCollect(bounded);
    EXPECT_EQ(std::set<Occurrence>(a.begin(), a.end()),
              std::set<Occurrence>(b.begin(), b.end()))
        << "seed " << seed;
  }
}

TEST(Bounded, BoundedReachesHelperAgreesWithReference) {
  Graph g = GeneratePowerLaw({.num_nodes = 60, .num_edges = 200,
                              .num_labels = 2, .seed = 5});
  for (NodeId u = 0; u < g.NumNodes(); u += 3) {
    for (NodeId v = 0; v < g.NumNodes(); v += 3) {
      for (uint32_t k : {1u, 2u, 3u}) {
        EXPECT_EQ(BoundedReaches(g, u, v, k), SlowReachesBounded(g, u, v, k))
            << u << "->" << v << " k=" << k;
      }
    }
  }
}

TEST(Bounded, BatchBfsHelpersHonorBound) {
  Graph g = PathGraph();
  Bitmap targets = {4};
  EXPECT_EQ(NodesReaching(g, targets, 1).ToVector(),
            (std::vector<NodeId>{3}));
  EXPECT_EQ(NodesReaching(g, targets, 2).ToVector(),
            (std::vector<NodeId>{2, 3}));
  Bitmap sources = {0};
  EXPECT_EQ(NodesReachableFrom(g, sources, 2).ToVector(),
            (std::vector<NodeId>{1, 2}));
}

TEST(Bounded, ParserSupportsBoundSyntax) {
  auto q = ParsePattern("(a:0)=3>(b:1)");
  ASSERT_TRUE(q.has_value());
  ASSERT_EQ(q->NumEdges(), 1u);
  EXPECT_EQ(q->Edge(0).kind, EdgeKind::kDescendant);
  EXPECT_EQ(q->Edge(0).max_hops, 3u);
  // Round trip through PatternToString.
  auto round = ParsePattern(PatternToString(*q));
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(*round, *q);
  // Malformed bound.
  EXPECT_FALSE(ParsePattern("(a:0)=3(b:1)").has_value());
}

TEST(Bounded, TransitiveReductionKeepsBoundedEdges) {
  // (a)->(b)->(c) plus a BOUNDED (a)=2>(c): the bound is a real constraint
  // (a path a->b->c of length 2 exists in Q, but on the data the two-step
  // path might be longer), so the edge must survive.
  PatternQuery q = PatternQuery::FromParts(
      {0, 1, 2},
      {{0, 1, EdgeKind::kChild},
       {1, 2, EdgeKind::kChild},
       {0, 2, EdgeKind::kDescendant, 2}});
  PatternQuery reduced = QueryTransitiveReduction(q);
  EXPECT_EQ(reduced.NumEdges(), 3u);
  // The unbounded version IS redundant.
  PatternQuery q2 = PatternQuery::FromParts(
      {0, 1, 2},
      {{0, 1, EdgeKind::kChild},
       {1, 2, EdgeKind::kChild},
       {0, 2, EdgeKind::kDescendant, 0}});
  EXPECT_EQ(QueryTransitiveReduction(q2).NumEdges(), 2u);
}

TEST(Bounded, BoundMattersSemantiically) {
  // a -> x -> y -> b: within 3 hops but not 2.
  Graph g = Graph::FromEdges({0, 2, 2, 1}, {{0, 1}, {1, 2}, {2, 3}});
  GmEngine engine(g);
  auto two = ParsePattern("(a:0)=2>(b:1)");
  auto three = ParsePattern("(a:0)=3>(b:1)");
  ASSERT_TRUE(two.has_value() && three.has_value());
  EXPECT_EQ(engine.Evaluate(*two).num_occurrences, 0u);
  EXPECT_EQ(engine.Evaluate(*three).num_occurrences, 1u);
}

TEST(Bounded, WcojReportsUnsupported) {
  Graph g = PathGraph();
  WcojEngine wcoj(g);
  wcoj.MaterializeClosure(1 << 24, nullptr);
  BaselineResult r = wcoj.Evaluate(BoundedPair(2));
  EXPECT_EQ(r.status, EvalStatus::kUnsupported);
}

// Differential property: GM / JM / TM / brute force agree on random graphs
// with mixed bounded/unbounded/child edges.
class BoundedCrossEngineTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoundedCrossEngineTest, EnginesAgree) {
  const uint64_t seed = GetParam();
  Graph g = GeneratePowerLaw({.num_nodes = 60, .num_edges = 220,
                              .num_labels = 3, .seed = seed});
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);

  // Random acyclic query; retype edges cyclically: child / bounded(2) /
  // unbounded descendant.
  PatternQuery base = GenerateRandomQuery({.num_nodes = 4, .num_edges = 5,
                                           .num_labels = 3,
                                           .variant = QueryVariant::kChildOnly,
                                           .seed = seed * 13 + 7});
  std::vector<QueryEdge> edges = base.Edges();
  for (size_t i = 0; i < edges.size(); ++i) {
    switch (i % 3) {
      case 0:
        break;  // keep child
      case 1:
        edges[i].kind = EdgeKind::kDescendant;
        edges[i].max_hops = 2;
        break;
      case 2:
        edges[i].kind = EdgeKind::kDescendant;
        edges[i].max_hops = 0;
        break;
    }
  }
  PatternQuery q = PatternQuery::FromParts(base.Labels(), edges);

  auto expected = BruteForceAnswer(g, q);
  GmEngine engine(g);
  auto gm = engine.EvaluateCollect(q);
  EXPECT_EQ(std::set<Occurrence>(gm.begin(), gm.end()), expected) << "GM";

  std::vector<Occurrence> jm_tuples;
  BaselineResult jm = JmEvaluate(ctx, q, {}, [&](const Occurrence& t) {
    jm_tuples.push_back(t);
    return true;
  });
  ASSERT_EQ(jm.status, EvalStatus::kOk);
  EXPECT_EQ(std::set<Occurrence>(jm_tuples.begin(), jm_tuples.end()), expected)
      << "JM";

  std::vector<Occurrence> tm_tuples;
  BaselineResult tm = TmEvaluate(ctx, q, {}, [&](const Occurrence& t) {
    tm_tuples.push_back(t);
    return true;
  });
  ASSERT_EQ(tm.status, EvalStatus::kOk);
  EXPECT_EQ(std::set<Occurrence>(tm_tuples.begin(), tm_tuples.end()), expected)
      << "TM";
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundedCrossEngineTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace rigpm
