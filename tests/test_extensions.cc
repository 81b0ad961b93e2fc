// Tests for the extension features: the inline pattern parser, parallel
// MJoin, and incremental (dynamic-graph) matching.

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "engine/gm_engine.h"
#include "engine/incremental.h"
#include "enumerate/mjoin_parallel.h"
#include "graph/generators.h"
#include "order/search_order.h"
#include "query/pattern_parser.h"
#include "query/query_generator.h"
#include "query/transitive_reduction.h"
#include "rig/rig_builder.h"
#include "test_util.h"

namespace rigpm {
namespace {

using ::rigpm::testing::BruteForceAnswer;
using ::rigpm::testing::PaperExample;

// --- Pattern parser.

TEST(PatternParser, ParsesPaperExampleQuery) {
  auto q = ParsePattern("(a:0)->(b:1), (a)->(c:2), (b)=>(c)");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(*q, PaperExample::MakeQuery());
}

TEST(PatternParser, ChainClause) {
  auto q = ParsePattern("(x:5)->(y:6)=>(z:7)");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->NumNodes(), 3u);
  EXPECT_EQ(q->NumEdges(), 2u);
  EXPECT_EQ(q->Edge(0).kind, EdgeKind::kChild);
  EXPECT_EQ(q->Edge(1).kind, EdgeKind::kDescendant);
}

TEST(PatternParser, ReversedArrows) {
  auto q = ParsePattern("(a:0)<-(b:1), (a)<=(c:2)");
  ASSERT_TRUE(q.has_value());
  // b -> a (child), c => a (descendant).
  EXPECT_TRUE(q->HasEdgeBetween(1, 0));
  EXPECT_TRUE(q->HasEdgeBetween(2, 0));
  EXPECT_EQ(q->InDegree(0), 2u);
}

TEST(PatternParser, RejectsErrors) {
  std::string error;
  EXPECT_FALSE(ParsePattern("", &error).has_value());
  EXPECT_FALSE(ParsePattern("(a)", &error).has_value());  // no label
  EXPECT_NE(error.find("label"), std::string::npos);
  EXPECT_FALSE(ParsePattern("(a:0)->(a:1)", &error).has_value());  // conflict
  EXPECT_FALSE(ParsePattern("(a:0)~>(b:1)", &error).has_value());  // bad edge
  EXPECT_FALSE(ParsePattern("(a:0)->", &error).has_value());
  EXPECT_FALSE(ParsePattern("(:0)->(b:1)", &error).has_value());  // no name
}

TEST(PatternParser, RoundTripThroughToString) {
  PatternQuery q = PaperExample::MakeQuery();
  std::string text = PatternToString(q);
  auto parsed = ParsePattern(text);
  ASSERT_TRUE(parsed.has_value()) << text;
  EXPECT_EQ(*parsed, q);
}

TEST(PatternParser, WhitespaceTolerant) {
  auto q = ParsePattern("  ( a:0 ) -> ( b:1 ) ,\n (b) => (c:2)");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->NumNodes(), 3u);
  EXPECT_EQ(q->NumEdges(), 2u);
}

// --- Parallel MJoin.

class ParallelMJoinTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ParallelMJoinTest, MatchesSequentialOnRandomInputs) {
  const uint32_t threads = GetParam();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Graph g = GeneratePowerLaw({.num_nodes = 150, .num_edges = 700,
                                .num_labels = 4, .seed = seed});
    auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
    MatchContext ctx(g, *reach);
    PatternQuery q = GenerateRandomQuery({.num_nodes = 5, .num_edges = 6,
                                          .num_labels = 4,
                                          .variant = QueryVariant::kHybrid,
                                          .seed = seed * 17});
    Rig rig = BuildRigFromMatchSets(ctx, q, RigBuildOptions{});
    auto order = ComputeSearchOrder(q, rig, OrderStrategy::kJO);

    auto sequential = MJoinCollect(q, rig, order);
    ParallelMJoinOptions popts;
    popts.num_threads = threads;
    auto parallel = MJoinParallelCollect(q, rig, order, popts);
    EXPECT_EQ(std::set<Occurrence>(parallel.begin(), parallel.end()),
              std::set<Occurrence>(sequential.begin(), sequential.end()))
        << "seed " << seed << " threads " << threads;
    EXPECT_EQ(parallel.size(), sequential.size());
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelMJoinTest,
                         ::testing::Values(1, 2, 4, 8),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

TEST(ParallelMJoin, RespectsGlobalLimit) {
  Graph g = GeneratePowerLaw({.num_nodes = 200, .num_edges = 1200,
                              .num_labels = 2, .seed = 4});
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);
  PatternQuery q = GenerateRandomQuery({.num_nodes = 3, .num_edges = 2,
                                        .num_labels = 2,
                                        .variant = QueryVariant::kHybrid,
                                        .seed = 5});
  Rig rig = BuildRigFromMatchSets(ctx, q, RigBuildOptions{});
  auto order = ComputeSearchOrder(q, rig, OrderStrategy::kJO);
  uint64_t all = MJoinCount(q, rig, order);
  ASSERT_GT(all, 50u);  // meaningful test needs many matches

  ParallelMJoinOptions popts;
  popts.num_threads = 4;
  popts.limit = 50;
  MJoinStats stats;
  EXPECT_EQ(MJoinParallelCount(q, rig, order, popts, &stats), 50u);
  EXPECT_EQ(stats.occurrences, 50u);
}

TEST(ParallelMJoin, ConcurrentSinkSeesEveryTuple) {
  Graph g = PaperExample::MakeGraph();
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);
  PatternQuery q = PaperExample::MakeQuery();
  Rig rig = BuildRigFromMatchSets(ctx, q, RigBuildOptions{});
  auto order = ComputeSearchOrder(q, rig, OrderStrategy::kJO);
  std::atomic<uint64_t> seen{0};
  ParallelMJoinOptions popts;
  popts.num_threads = 3;
  uint64_t n = MJoinParallel(q, rig, order, [&seen](const Occurrence&) {
    seen.fetch_add(1);
    return true;
  }, popts);
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(seen.load(), 4u);
}

TEST(ParallelMJoin, EmptyRigShortCircuit) {
  Graph g = Graph::FromEdges({0, 1}, {{0, 1}});
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);
  PatternQuery q =
      PatternQuery::FromParts({0, 5}, {{0, 1, EdgeKind::kChild}});
  Rig rig = BuildRigFromMatchSets(ctx, q, RigBuildOptions{});
  std::vector<QueryNodeId> order = {0, 1};
  EXPECT_EQ(MJoinParallelCount(q, rig, order), 0u);
}

// --- Incremental matching.

TEST(Incremental, ChildEdgeInsertionYieldsExactDelta) {
  // a0 -> b0 exists; adding a1 -> b0 creates exactly one new match of
  // (A)->(B).
  Graph g = Graph::FromEdges({0, 0, 1}, {{0, 2}});
  auto q = ParsePattern("(a:0)->(b:1)");
  ASSERT_TRUE(q.has_value());
  IncrementalMatcher matcher(std::move(g), *q);
  EXPECT_EQ(matcher.CurrentAnswer().size(), 1u);
  auto delta = matcher.ApplyOpsAndDiff({{1, 2}});
  ASSERT_TRUE(delta.has_value());
  ASSERT_EQ(delta->added.size(), 1u);
  EXPECT_EQ(delta->added[0], (Occurrence{1, 2}));
  EXPECT_EQ(matcher.CurrentAnswer().size(), 2u);
}

TEST(Incremental, TransitiveReachabilityDelta) {
  // Chain a -> x exists; adding x -> b creates a NEW reachability match
  // (a => b) even though neither endpoint of the new edge is 'a'.
  Graph g = Graph::FromEdges({0, 2, 1}, {{0, 1}});
  auto q = ParsePattern("(a:0)=>(b:1)");
  ASSERT_TRUE(q.has_value());
  IncrementalMatcher matcher(std::move(g), *q);
  EXPECT_TRUE(matcher.CurrentAnswer().empty());
  auto delta = matcher.ApplyOpsAndDiff({{1, 2}});
  ASSERT_TRUE(delta.has_value());
  ASSERT_EQ(delta->added.size(), 1u);
  EXPECT_EQ(delta->added[0], (Occurrence{0, 2}));
}

TEST(Incremental, DeltaNeverRepeatsOldMatches) {
  Graph g = GeneratePowerLaw({.num_nodes = 80, .num_edges = 300,
                              .num_labels = 3, .seed = 6});
  PatternQuery q = GenerateRandomQuery({.num_nodes = 4, .num_edges = 4,
                                        .num_labels = 3,
                                        .variant = QueryVariant::kHybrid,
                                        .seed = 7});
  // Differential check: Answer(G') \ Answer(G) computed by brute force.
  std::vector<std::pair<NodeId, NodeId>> batch = {{0, 40}, {11, 2}, {5, 33}};
  std::vector<LabelId> labels(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); ++v) labels[v] = g.Label(v);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (NodeId w : g.OutNeighbors(v)) edges.emplace_back(v, w);
  }
  auto before = BruteForceAnswer(g, q);
  std::vector<std::pair<NodeId, NodeId>> all_edges = edges;
  for (auto e : batch) all_edges.push_back(e);
  Graph g_after = Graph::FromEdges(labels, all_edges);
  auto after = BruteForceAnswer(g_after, q);
  std::set<std::vector<NodeId>> expected_delta;
  for (const auto& t : after) {
    if (before.count(t) == 0) expected_delta.insert(t);
  }

  IncrementalMatcher matcher(Graph::FromEdges(labels, edges), q);
  auto delta = matcher.ApplyOpsAndDiff(EdgesToOps(batch));
  ASSERT_TRUE(delta.has_value());
  EXPECT_EQ(std::set<std::vector<NodeId>>(delta->added.begin(),
                                          delta->added.end()),
            expected_delta);
}

TEST(Incremental, RepeatedBatchLeavesGraphAndDeltaStable) {
  // Applying the same batch twice must be idempotent: the second delta is
  // empty AND the rebuilt graph does not grow parallel CSR edges (the
  // adjacency bitmaps dedupe silently, so NumEdges() is where the pre-fix
  // unbounded growth showed).
  Graph g = Graph::FromEdges({0, 0, 1}, {{0, 2}});
  auto q = ParsePattern("(a:0)->(b:1)");
  ASSERT_TRUE(q.has_value());
  IncrementalMatcher matcher(std::move(g), *q);

  auto first = matcher.ApplyOpsAndDiff({{1, 2}});
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->added.size(), 1u);
  const uint64_t edges_after_first = matcher.current_graph().NumEdges();
  EXPECT_EQ(edges_after_first, 2u);

  auto second = matcher.ApplyOpsAndDiff({{1, 2}});
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->added.empty());
  EXPECT_EQ(matcher.current_graph().NumEdges(), edges_after_first);
  EXPECT_EQ(matcher.CurrentAnswer().size(), 2u);
}

TEST(Incremental, DuplicateEdgesWithinOneBatchAreDeduped) {
  // A batch that repeats an edge (and re-adds an existing one) contributes
  // each distinct new edge exactly once.
  Graph g = Graph::FromEdges({0, 0, 1}, {{0, 2}});
  auto q = ParsePattern("(a:0)->(b:1)");
  ASSERT_TRUE(q.has_value());
  IncrementalMatcher matcher(std::move(g), *q);

  auto delta = matcher.ApplyOpsAndDiff({{1, 2}, {1, 2}, {0, 2}, {1, 2}});
  ASSERT_TRUE(delta.has_value());
  EXPECT_EQ(delta->added.size(), 1u);
  EXPECT_EQ(matcher.current_graph().NumEdges(), 2u);
  EXPECT_EQ(matcher.CurrentAnswer().size(), 2u);
}

TEST(Incremental, OverlappingBatchesOnlyGrowByNewEdges) {
  Graph g = Graph::FromEdges({0, 0, 0, 1}, {{0, 3}});
  auto q = ParsePattern("(a:0)->(b:1)");
  ASSERT_TRUE(q.has_value());
  IncrementalMatcher matcher(std::move(g), *q);
  EXPECT_EQ(matcher.ApplyOpsAndDiff({{1, 3}})->added.size(), 1u);
  // Overlaps with both the original edge and the previous batch; only
  // {2, 3} is new.
  EXPECT_EQ(matcher.ApplyOpsAndDiff({{0, 3}, {1, 3}, {2, 3}})->added.size(),
            1u);
  EXPECT_EQ(matcher.current_graph().NumEdges(), 3u);
  EXPECT_EQ(matcher.CurrentAnswer().size(), 3u);
}

TEST(Incremental, BatchWithNonexistentEndpointIsRejectedWhole) {
  // "Both endpoints must already exist" is an enforced precondition, not a
  // comment: one out-of-range edge rejects the whole batch with a
  // descriptive error, and no state changes — a journaled delta log must
  // never contain a record that cannot replay against its base.
  Graph g = Graph::FromEdges({0, 0, 1}, {{0, 2}});
  auto q = ParsePattern("(a:0)->(b:1)");
  ASSERT_TRUE(q.has_value());
  IncrementalMatcher matcher(std::move(g), *q);
  std::string error;
  auto delta = matcher.ApplyOpsAndDiff({{1, 2}, {1, 99}}, &error);
  EXPECT_FALSE(delta.has_value());
  EXPECT_NE(error.find("99"), std::string::npos) << error;
  EXPECT_EQ(matcher.current_graph().NumEdges(), 1u);
  EXPECT_EQ(matcher.CurrentAnswer().size(), 1u);
  // The same batch without the offending edge applies normally afterwards.
  auto retry = matcher.ApplyOpsAndDiff({{1, 2}});
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->added.size(), 1u);
}

TEST(Incremental, SequenceOfBatches) {
  // Build a path one edge at a time; the descendant-pair count after k
  // edges is k(k+1)/2 over path nodes; each batch's delta adds exactly the
  // pairs ending at the new edge's head.
  const uint32_t n = 6;
  std::vector<LabelId> labels(n, 0);
  Graph g = Graph::FromEdges(labels, {});
  auto q = ParsePattern("(a:0)=>(b:0)");
  ASSERT_TRUE(q.has_value());
  IncrementalMatcher matcher(std::move(g), *q);
  uint64_t total = 0;
  for (NodeId v = 0; v + 1 < n; ++v) {
    auto delta = matcher.ApplyOpsAndDiff({{v, v + 1}});
    ASSERT_TRUE(delta.has_value());
    EXPECT_EQ(delta->added.size(), v + 1u);  // every earlier node reaches v+1
    total += delta->added.size();
  }
  EXPECT_EQ(total, matcher.CurrentAnswer().size());
  EXPECT_EQ(total, static_cast<uint64_t>(n) * (n - 1) / 2);
}

}  // namespace
}  // namespace rigpm
