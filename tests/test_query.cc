#include "query/pattern_query.h"

#include <gtest/gtest.h>

#include "query/dag_decomposition.h"
#include "query/query_generator.h"
#include "query/query_templates.h"
#include "query/transitive_reduction.h"
#include "test_util.h"

namespace rigpm {
namespace {

PatternQuery Diamond() {
  // 0 -> 1 -> 3, 0 -> 2 -> 3 (one undirected cycle).
  return PatternQuery::FromParts({0, 1, 2, 3},
                                 {{0, 1, EdgeKind::kChild},
                                  {0, 2, EdgeKind::kDescendant},
                                  {1, 3, EdgeKind::kChild},
                                  {2, 3, EdgeKind::kChild}});
}

TEST(PatternQuery, BasicAccessors) {
  PatternQuery q = Diamond();
  EXPECT_EQ(q.NumNodes(), 4u);
  EXPECT_EQ(q.NumEdges(), 4u);
  EXPECT_EQ(q.NumChildEdges(), 3u);
  EXPECT_EQ(q.NumDescendantEdges(), 1u);
  EXPECT_EQ(q.Label(2), 2u);
  EXPECT_EQ(q.OutDegree(0), 2u);
  EXPECT_EQ(q.InDegree(3), 2u);
  EXPECT_EQ(q.Degree(0), 2u);
  EXPECT_TRUE(q.HasEdgeBetween(0, 1));
  EXPECT_FALSE(q.HasEdgeBetween(1, 0));
}

TEST(PatternQuery, IncidenceListsConsistent) {
  PatternQuery q = Diamond();
  for (QueryNodeId v = 0; v < q.NumNodes(); ++v) {
    for (QueryEdgeId e : q.OutEdges(v)) EXPECT_EQ(q.Edge(e).from, v);
    for (QueryEdgeId e : q.InEdges(v)) EXPECT_EQ(q.Edge(e).to, v);
  }
}

TEST(PatternQuery, ChildAndDescendantBetweenSamePairCoexist) {
  PatternQuery q = PatternQuery::FromParts(
      {0, 1},
      {{0, 1, EdgeKind::kChild}, {0, 1, EdgeKind::kDescendant}});
  EXPECT_EQ(q.NumEdges(), 2u);
}

TEST(PatternQuery, ConnectivityAndDagChecks) {
  PatternQuery q = Diamond();
  EXPECT_TRUE(q.IsConnected());
  std::vector<QueryNodeId> topo;
  EXPECT_TRUE(q.IsDag(&topo));
  EXPECT_EQ(topo.size(), 4u);
  EXPECT_EQ(topo.front(), 0u);
  EXPECT_EQ(topo.back(), 3u);
  EXPECT_FALSE(q.IsUndirectedAcyclic());  // diamond has an undirected cycle

  PatternQuery disconnected =
      PatternQuery::FromParts({0, 1, 2}, {{0, 1, EdgeKind::kChild}});
  EXPECT_FALSE(disconnected.IsConnected());

  PatternQuery cyclic = PatternQuery::FromParts(
      {0, 1}, {{0, 1, EdgeKind::kChild}, {1, 0, EdgeKind::kChild}});
  EXPECT_FALSE(cyclic.IsDag());

  PatternQuery tree = PatternQuery::FromParts(
      {0, 1, 2}, {{0, 1, EdgeKind::kChild}, {0, 2, EdgeKind::kDescendant}});
  EXPECT_TRUE(tree.IsUndirectedAcyclic());
}

// --- Transitive closure / reduction (Section 3, Fig. 3).

TEST(TransitiveReduction, Fig3Example) {
  // Q: A -> B -> C (descendant edges) plus transitive edge (A, C).
  PatternQuery q = PatternQuery::FromParts(
      {0, 1, 2},
      {{0, 1, EdgeKind::kDescendant},
       {1, 2, EdgeKind::kDescendant},
       {0, 2, EdgeKind::kDescendant}});
  PatternQuery reduced = QueryTransitiveReduction(q);
  EXPECT_EQ(reduced.NumEdges(), 2u);
  EXPECT_TRUE(reduced.HasEdgeBetween(0, 1));
  EXPECT_TRUE(reduced.HasEdgeBetween(1, 2));
  EXPECT_FALSE(reduced.HasEdgeBetween(0, 2));
}

TEST(TransitiveReduction, ChildPathAlsoSubsumesDescendantEdge) {
  // IR1: a child path implies reachability, so (A, C) is transitive even
  // though the covering path uses child edges.
  PatternQuery q = PatternQuery::FromParts(
      {0, 1, 2},
      {{0, 1, EdgeKind::kChild},
       {1, 2, EdgeKind::kChild},
       {0, 2, EdgeKind::kDescendant}});
  PatternQuery reduced = QueryTransitiveReduction(q);
  EXPECT_EQ(reduced.NumEdges(), 2u);
  EXPECT_EQ(reduced.NumChildEdges(), 2u);
}

TEST(TransitiveReduction, ChildEdgesNeverRemoved) {
  // A child edge parallel to a path is NOT redundant (it demands a direct
  // edge); only the descendant duplicate goes.
  PatternQuery q = PatternQuery::FromParts(
      {0, 1},
      {{0, 1, EdgeKind::kChild}, {0, 1, EdgeKind::kDescendant}});
  PatternQuery reduced = QueryTransitiveReduction(q);
  EXPECT_EQ(reduced.NumEdges(), 1u);
  EXPECT_EQ(reduced.Edge(0).kind, EdgeKind::kChild);
}

TEST(TransitiveReduction, IrreducibleQueryUnchanged) {
  PatternQuery q = Diamond();
  PatternQuery reduced = QueryTransitiveReduction(q);
  EXPECT_EQ(reduced, q);
}

TEST(TransitiveClosureOfQuery, AddsAllImpliedEdges) {
  PatternQuery q = PatternQuery::FromParts(
      {0, 1, 2},
      {{0, 1, EdgeKind::kChild}, {1, 2, EdgeKind::kDescendant}});
  PatternQuery closure = QueryTransitiveClosure(q);
  // Child edges kept + descendant edges for all reachable pairs:
  // (0,1), (1,2), (0,2).
  EXPECT_EQ(closure.NumChildEdges(), 1u);
  EXPECT_EQ(closure.NumDescendantEdges(), 3u);
  EXPECT_TRUE(closure.HasEdgeBetween(0, 2));
}

TEST(QueryReaches, SkipsTheExcludedEdge) {
  PatternQuery q = PatternQuery::FromParts(
      {0, 1}, {{0, 1, EdgeKind::kDescendant}});
  EXPECT_TRUE(QueryReaches(q, 0, 1, q.NumEdges()));
  EXPECT_FALSE(QueryReaches(q, 0, 1, 0));  // the only path is the edge itself
}

// --- DAG + Δ decomposition.

TEST(DagDecomposition, DagQueryHasNoBackEdges) {
  DagDecomposition d = DecomposeDag(Diamond());
  EXPECT_TRUE(d.IsDagQuery());
  EXPECT_EQ(d.dag_edges.size(), 4u);
  EXPECT_EQ(d.topo_order.size(), 4u);
}

TEST(DagDecomposition, CycleYieldsBackEdge) {
  PatternQuery q = PatternQuery::FromParts(
      {0, 1, 2},
      {{0, 1, EdgeKind::kChild},
       {1, 2, EdgeKind::kChild},
       {2, 0, EdgeKind::kDescendant}});
  DagDecomposition d = DecomposeDag(q);
  EXPECT_EQ(d.back_edges.size(), 1u);
  EXPECT_EQ(d.dag_edges.size(), 2u);
  // The topo order must respect all DAG edges.
  std::vector<uint32_t> pos(q.NumNodes());
  for (uint32_t i = 0; i < d.topo_order.size(); ++i) pos[d.topo_order[i]] = i;
  for (QueryEdgeId e : d.dag_edges) {
    EXPECT_LT(pos[q.Edge(e).from], pos[q.Edge(e).to]);
  }
}

// --- Templates.

TEST(Templates, TwentyTemplatesWithExpectedClasses) {
  const auto& templates = HQueryTemplates();
  ASSERT_EQ(templates.size(), 20u);
  for (uint32_t i = 0; i < 20; ++i) {
    EXPECT_EQ(templates[i].name, "HQ" + std::to_string(i));
  }
  EXPECT_EQ(TemplateByName("HQ2").cls, PatternClass::kAcyclic);
  EXPECT_EQ(TemplateByName("HQ8").cls, PatternClass::kCyclic);
  EXPECT_EQ(TemplateByName("HQ19").cls, PatternClass::kClique);
  EXPECT_EQ(TemplateByName("HQ19").num_nodes, 7u);
  EXPECT_EQ(TemplateByName("HQ19").edges.size(), 21u);  // K7
  EXPECT_EQ(TemplateByName("HQ14").cls, PatternClass::kCombo);
}

class TemplateInstantiationTest
    : public ::testing::TestWithParam<QueryVariant> {};

TEST_P(TemplateInstantiationTest, InstancesAreWellFormed) {
  for (const QueryTemplate& tpl : HQueryTemplates()) {
    PatternQuery q = InstantiateTemplate(
        tpl, GetParam(), std::vector<LabelId>(tpl.num_nodes, 5));
    EXPECT_EQ(q.NumNodes(), tpl.num_nodes) << tpl.name;
    EXPECT_EQ(q.NumEdges(), tpl.edges.size()) << tpl.name;
    EXPECT_TRUE(q.IsConnected()) << tpl.name;
    EXPECT_TRUE(q.IsDag()) << tpl.name;
    switch (GetParam()) {
      case QueryVariant::kChildOnly:
        EXPECT_EQ(q.NumDescendantEdges(), 0u) << tpl.name;
        break;
      case QueryVariant::kDescendantOnly:
        EXPECT_EQ(q.NumChildEdges(), 0u) << tpl.name;
        break;
      case QueryVariant::kHybrid:
        break;  // mixed by construction
    }
    // Structural class invariants.
    if (tpl.cls == PatternClass::kAcyclic) {
      EXPECT_TRUE(q.IsUndirectedAcyclic()) << tpl.name;
    } else {
      EXPECT_FALSE(q.IsUndirectedAcyclic()) << tpl.name;
    }
    if (tpl.cls == PatternClass::kClique) {
      EXPECT_EQ(q.NumEdges(), tpl.num_nodes * (tpl.num_nodes - 1) / 2)
          << tpl.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, TemplateInstantiationTest,
                         ::testing::Values(QueryVariant::kChildOnly,
                                           QueryVariant::kHybrid,
                                           QueryVariant::kDescendantOnly),
                         [](const auto& info) {
                           return QueryVariantName(info.param);
                         });

TEST(Templates, HybridVariantMixesKindsSomewhere) {
  uint32_t child = 0, desc = 0;
  for (const QueryTemplate& tpl : HQueryTemplates()) {
    PatternQuery q = InstantiateTemplate(
        tpl, QueryVariant::kHybrid, std::vector<LabelId>(tpl.num_nodes, 1));
    child += q.NumChildEdges();
    desc += q.NumDescendantEdges();
  }
  EXPECT_GT(child, 0u);
  EXPECT_GT(desc, 0u);
}

// --- Generators.

TEST(QueryGenerator, RandomQueryRespectsOptions) {
  RandomQueryOptions opts{.num_nodes = 8, .num_edges = 12, .num_labels = 6,
                          .variant = QueryVariant::kHybrid, .seed = 3};
  PatternQuery q = GenerateRandomQuery(opts);
  EXPECT_EQ(q.NumNodes(), 8u);
  EXPECT_EQ(q.NumEdges(), 12u);
  EXPECT_TRUE(q.IsConnected());
  EXPECT_TRUE(q.IsDag());
  // Deterministic.
  EXPECT_EQ(GenerateRandomQuery(opts), q);
}

TEST(QueryGenerator, ExtractedQueryHasGuaranteedMatch) {
  Graph g = Graph::FromEdges({0, 1, 2, 0, 1, 2},
                             {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 4}});
  ExtractedQueryOptions opts{
      .num_nodes = 4, .variant = QueryVariant::kChildOnly, .seed = 9};
  auto q = ExtractQueryFromGraph(g, opts);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->NumNodes(), 4u);
  EXPECT_TRUE(q->IsConnected());
  // The identity mapping is a homomorphism, so the answer is non-empty.
  auto answer = ::rigpm::testing::BruteForceAnswer(g, *q);
  EXPECT_FALSE(answer.empty());
}

}  // namespace
}  // namespace rigpm
