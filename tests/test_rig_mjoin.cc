#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <string>

#include "enumerate/mjoin.h"
#include "graph/generators.h"
#include "order/search_order.h"
#include "query/pattern_parser.h"
#include "query/query_generator.h"
#include "rig/rig_builder.h"
#include "test_util.h"

// Every global operator new of this binary is counted, so that a test can
// bound the allocations one call makes. libstdc++'s array and nothrow forms
// call these two, and its array and nothrow deletes call this delete.
namespace {
std::atomic<uint64_t> g_operator_news{0};
}  // namespace

void* operator new(std::size_t size) {
  g_operator_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace rigpm {
namespace {

using ::rigpm::testing::BruteForceAnswer;
using ::rigpm::testing::PaperExample;
using ::rigpm::testing::WithSelfLoops;

/// Algorithm 4 from the label match sets ms(q): the double simulation
/// refines them into cos(q) (GM's defaults: dag-map, 3 passes), then
/// expansion adds the RIG edges. Without `simulate` it expands ms(q) itself,
/// the match RIG G^m_Q.
Rig BuildTestRig(const MatchContext& ctx, const PatternQuery& q,
                 bool simulate = true, RigBuildStats* stats = nullptr) {
  CandidateSets cos = InitialMatchSets(ctx.graph(), q);
  if (simulate) {
    cos = ComputeDoubleSimulation(ctx, q, std::move(cos), SimAlgorithm::kDagMap,
                                  {.max_passes = 3},
                                  stats != nullptr ? &stats->sim : nullptr);
  }
  return ExpandRig(ctx, q, std::move(cos), stats);
}

/// An MJoin sink that appends every occurrence to *out.
OccurrenceSink CollectInto(std::vector<Occurrence>* out) {
  return [out](const Occurrence& t) {
    out->push_back(t);
    return true;
  };
}

class RigFixture : public ::testing::Test {
 protected:
  RigFixture()
      : graph_(PaperExample::MakeGraph()),
        query_(PaperExample::MakeQuery()),
        reach_(BuildReachabilityIndex(graph_, ReachKind::kBfl)),
        ctx_(graph_, *reach_) {}

  Graph graph_;
  PatternQuery query_;
  std::unique_ptr<ReachabilityIndex> reach_;
  MatchContext ctx_;
};

// The refined RIG of Fig. 2(e): node sets equal FB, and the (B,C) edge set
// contains the redundant pair (b2, c1) that only MJoin filters out.
TEST_F(RigFixture, PaperExampleRefinedRig) {
  Rig rig = BuildTestRig(ctx_, query_);
  EXPECT_EQ(rig.Cos(0).ToVector(),
            (std::vector<NodeId>{PaperExample::a1, PaperExample::a2}));
  EXPECT_EQ(rig.Cos(1).ToVector(),
            (std::vector<NodeId>{PaperExample::b0, PaperExample::b2}));
  EXPECT_EQ(rig.Cos(2).ToVector(),
            (std::vector<NodeId>{PaperExample::c0, PaperExample::c1,
                                 PaperExample::c2}));

  // Edge (A,B): exactly the occurrence pairs.
  EXPECT_EQ(rig.Forward(0, PaperExample::a1).ToVector(),
            (std::vector<NodeId>{PaperExample::b0}));
  EXPECT_EQ(rig.Forward(0, PaperExample::a2).ToVector(),
            (std::vector<NodeId>{PaperExample::b2}));
  // Edge (B,C): b2's adjacency includes the redundant c1.
  EXPECT_EQ(rig.Forward(2, PaperExample::b2).ToVector(),
            (std::vector<NodeId>{PaperExample::c0, PaperExample::c1,
                                 PaperExample::c2}));
  EXPECT_EQ(rig.EdgeCount(0), 2u);
  EXPECT_EQ(rig.EdgeCount(2), 5u);  // (b0,c0),(b0,c1),(b2,c0),(b2,c1),(b2,c2)
  EXPECT_EQ(rig.TotalNodes(), 7u);
  EXPECT_GT(rig.MemoryBytes(), 0u);
  EXPECT_FALSE(rig.AnyEmpty());
}

// Proposition 4.1 (losslessness): every homomorphism edge image is a RIG
// edge, in both the refined and the match RIG.
TEST_F(RigFixture, Proposition41Losslessness) {
  Rig match_rig = BuildTestRig(ctx_, query_, /*simulate=*/false);
  Rig refined = BuildTestRig(ctx_, query_);

  auto answer = BruteForceAnswer(graph_, query_);
  ASSERT_FALSE(answer.empty());
  for (const auto& h : answer) {
    for (QueryEdgeId e = 0; e < query_.NumEdges(); ++e) {
      const QueryEdge& edge = query_.Edge(e);
      EXPECT_TRUE(match_rig.Forward(e, h[edge.from]).Contains(h[edge.to]));
      EXPECT_TRUE(refined.Forward(e, h[edge.from]).Contains(h[edge.to]));
      EXPECT_TRUE(refined.Backward(e, h[edge.to]).Contains(h[edge.from]));
    }
  }
  // The refined RIG is no larger than the match RIG.
  EXPECT_LE(refined.Size(), match_rig.Size());
}

// expand_pair_checks counts every candidate expansion tests: on a child
// edge each out-neighbour of each vp in cos(p), on a descendant edge each
// pair of cos(p) x cos(q).
TEST_F(RigFixture, ExpandPairChecksCountEveryCandidateTested) {
  for (bool simulate : {true, false}) {
    RigBuildStats stats;
    Rig rig = BuildTestRig(ctx_, query_, simulate, &stats);
    uint64_t want = 0;
    for (const QueryEdge& edge : query_.Edges()) {
      const Bitmap& src = rig.Cos(edge.from);
      if (edge.kind == EdgeKind::kChild) {
        src.ForEach([&](NodeId vp) { want += graph_.OutDegree(vp); });
      } else {
        want += src.Cardinality() * rig.Cos(edge.to).Cardinality();
      }
    }
    EXPECT_EQ(stats.expand_pair_checks, want) << "simulate " << simulate;
    // Simulated: cos(A) = {a1, a2}, out-degree 3 each, on the child edges
    // (A,B) and (A,C); cos(B) x cos(C) is 2 x 3 on (B,C). Match sets:
    // cos(A) adds a0 (out-degree 1), and cos(B) x cos(C) is 4 x 3.
    EXPECT_EQ(want, simulate ? 6u + 6u + 6u : 7u + 7u + 12u);
  }
}

TEST_F(RigFixture, MJoinProducesPaperAnswer) {
  Rig rig = BuildTestRig(ctx_, query_);
  std::vector<QueryNodeId> order =
      ComputeSearchOrder(query_, rig, OrderStrategy::kJO);
  MJoinStats stats;
  std::vector<Occurrence> tuples;
  MJoin(query_, rig, order, CollectInto(&tuples), MJoinOptions{}, &stats);
  std::set<std::vector<NodeId>> got(tuples.begin(), tuples.end());
  EXPECT_EQ(got, PaperExample::ExpectedAnswer());
  EXPECT_EQ(stats.occurrences, 4u);
  EXPECT_GT(stats.intersections, 0u);
}

TEST_F(RigFixture, MJoinAnswerIndependentOfOrderStrategy) {
  Rig rig = BuildTestRig(ctx_, query_);
  std::set<std::vector<NodeId>> expected = PaperExample::ExpectedAnswer();
  for (OrderStrategy s :
       {OrderStrategy::kJO, OrderStrategy::kRI, OrderStrategy::kBJ}) {
    auto order = ComputeSearchOrder(query_, rig, s);
    std::vector<Occurrence> tuples;
    MJoin(query_, rig, order, CollectInto(&tuples));
    EXPECT_EQ(std::set<std::vector<NodeId>>(tuples.begin(), tuples.end()),
              expected)
        << OrderStrategyName(s);
  }
}

TEST_F(RigFixture, MJoinLimitStopsEarly) {
  Rig rig = BuildTestRig(ctx_, query_);
  std::vector<QueryNodeId> order =
      ComputeSearchOrder(query_, rig, OrderStrategy::kJO);
  MJoinOptions opts;
  opts.limit = 2;
  EXPECT_EQ(MJoin(query_, rig, order, nullptr, opts), 2u);
  // Limit 0 emits nothing and never calls the sink.
  opts.limit = 0;
  uint64_t seen = 0;
  MJoinStats stats;
  EXPECT_EQ(MJoin(query_, rig, order,
                  [&seen](const Occurrence&) {
                    ++seen;
                    return true;
                  },
                  opts, &stats),
            0u);
  EXPECT_EQ(seen, 0u);
  EXPECT_EQ(stats.occurrences, 0u);
}

TEST_F(RigFixture, MJoinSinkCanAbort) {
  Rig rig = BuildTestRig(ctx_, query_);
  std::vector<QueryNodeId> order =
      ComputeSearchOrder(query_, rig, OrderStrategy::kJO);
  uint64_t seen = 0;
  MJoin(query_, rig, order, [&seen](const Occurrence&) {
    ++seen;
    return false;  // stop immediately
  });
  EXPECT_EQ(seen, 1u);
}

TEST(Rig, EmptyCosShortCircuitsEverything) {
  // Query label 3 does not exist in the data.
  Graph g = Graph::FromEdges({0, 1}, {{0, 1}});
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);
  PatternQuery q = PatternQuery::FromParts(
      {0, 3}, {{0, 1, EdgeKind::kChild}});
  RigBuildStats stats;
  Rig rig = BuildTestRig(ctx, q, /*simulate=*/true, &stats);
  EXPECT_TRUE(rig.AnyEmpty());
  EXPECT_EQ(rig.TotalEdges(), 0u);
  EXPECT_EQ(stats.expand_pair_checks, 0u);  // expansion was skipped
  std::vector<QueryNodeId> order = {0, 1};
  EXPECT_EQ(MJoin(q, rig, order, nullptr), 0u);
}

// Algorithm 5 builds no intermediate result, and neither does a search
// step: once its rows and candidate vectors have grown, a step allocates
// nothing. One MJoin over a dense graph takes >= 10,000 steps, with a sink
// and without, and stays under 64 allocations per query node, a bound a
// single allocation per step would break.
TEST(MJoin, WarmSearchStepsAllocateNothing) {
  Graph g = GeneratePowerLaw(
      {.num_nodes = 300, .num_edges = 3000, .num_labels = 3, .seed = 11});
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);
  std::optional<PatternQuery> q =
      ParsePattern("(a:0)->(b:1), (b)->(c:2), (a)=>(c), (c)=>(d:0), (b)=>(d)");
  ASSERT_TRUE(q.has_value());
  Rig rig = BuildTestRig(ctx, *q);
  auto order = ComputeSearchOrder(*q, rig, OrderStrategy::kJO);
  const uint64_t bound = 64 * uint64_t{q->NumNodes()};

  uint64_t seen = 0;
  const OccurrenceSink sink = [&seen](const Occurrence&) {
    ++seen;
    return true;
  };
  for (bool with_sink : {true, false}) {
    MJoinStats stats;
    const uint64_t before = g_operator_news.load();
    const uint64_t found = MJoin(*q, rig, order, with_sink ? sink : nullptr,
                                 MJoinOptions{}, &stats);
    const uint64_t news = g_operator_news.load() - before;
    EXPECT_GE(stats.intersections, 10000u) << "sink " << with_sink;
    EXPECT_GT(found, 0u);
    EXPECT_LT(news, bound) << "sink " << with_sink << ": " << news
                           << " allocations over " << stats.intersections
                           << " search steps";
  }
  EXPECT_GT(seen, 0u);
}

// --- Search orders.

TEST_F(RigFixture, OrdersArePermutationsWithConnectedPrefixes) {
  Rig rig = BuildTestRig(ctx_, query_);
  for (OrderStrategy s :
       {OrderStrategy::kJO, OrderStrategy::kRI, OrderStrategy::kBJ}) {
    auto order = ComputeSearchOrder(query_, rig, s);
    ASSERT_EQ(order.size(), query_.NumNodes()) << OrderStrategyName(s);
    std::set<QueryNodeId> seen;
    for (uint32_t i = 0; i < order.size(); ++i) {
      EXPECT_TRUE(seen.insert(order[i]).second);
      if (i > 0) {
        bool connected = false;
        for (uint32_t j = 0; j < i && !connected; ++j) {
          connected = query_.HasEdgeBetween(order[i], order[j]) ||
                      query_.HasEdgeBetween(order[j], order[i]);
        }
        EXPECT_TRUE(connected)
            << OrderStrategyName(s) << " position " << i;
      }
    }
  }
}

TEST_F(RigFixture, JoStartsAtSmallestCandidateSet) {
  Rig rig = BuildTestRig(ctx_, query_);
  auto order = ComputeSearchOrder(query_, rig, OrderStrategy::kJO);
  // cos(A) and cos(B) both have 2 nodes; cos(C) has 3. The start node must
  // be one of the minimum-cardinality ones.
  EXPECT_LE(rig.Cos(order[0]).Cardinality(), rig.Cos(order[1]).Cardinality());
  EXPECT_LE(rig.Cos(order[0]).Cardinality(), rig.Cos(order[2]).Cardinality());
}

TEST_F(RigFixture, BjReportsPlanCount) {
  Rig rig = BuildTestRig(ctx_, query_);
  OrderStats stats;
  ComputeSearchOrder(query_, rig, OrderStrategy::kBJ, &stats);
  EXPECT_GT(stats.plans_considered, 0u);
  EXPECT_FALSE(stats.fell_back_to_jo);
}

TEST(SearchOrder, BjFallsBackOnHugeQueries) {
  // 24-node path query exceeds the BJ subset-DP bound.
  std::vector<LabelId> labels(24, 0);
  std::vector<QueryEdge> edges;
  for (QueryNodeId i = 0; i + 1 < 24; ++i) {
    edges.push_back({i, i + 1, EdgeKind::kChild});
  }
  PatternQuery q = PatternQuery::FromParts(labels, edges);
  Graph g = Graph::FromEdges({0, 0}, {{0, 1}});
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);
  Rig rig = BuildTestRig(ctx, q);
  OrderStats stats;
  auto order = ComputeSearchOrder(q, rig, OrderStrategy::kBJ, &stats);
  EXPECT_TRUE(stats.fell_back_to_jo);
  EXPECT_EQ(order.size(), 24u);
}

// ---------------------------------------------------------------------------
// Differential property: RIG + MJoin equals brute force on random inputs.
// ---------------------------------------------------------------------------

struct EndToEndCase {
  const char* label;
  uint64_t seed;
  uint32_t q_nodes;
  uint32_t q_edges;
  bool dag_data;
  // Some row of the case's RIGs is as large as the cos set it points into.
  bool has_full_row = true;
};

class RigMJoinPropertyTest : public ::testing::TestWithParam<EndToEndCase> {};

TEST_P(RigMJoinPropertyTest, MatchesBruteForce) {
  // On the simulated RIG and on the bare match-set RIG (which keeps nodes
  // without partners, so some of its rows are empty), MJoin with a sink and
  // without one returns the brute-force answer: in full, under limits
  // around its size, and along every permutation of the query nodes.
  const EndToEndCase& p = GetParam();
  GeneratorOptions gopts{.num_nodes = 50, .num_edges = 170, .num_labels = 4,
                         .seed = p.seed};
  Graph g = p.dag_data ? GenerateRandomDag(gopts) : GeneratePowerLaw(gopts);
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);

  PatternQuery q = GenerateRandomQuery({.num_nodes = p.q_nodes,
                                        .num_edges = p.q_edges,
                                        .num_labels = 4,
                                        .variant = QueryVariant::kHybrid,
                                        .seed = p.seed * 31 + 5});
  const std::set<std::vector<NodeId>> want = BruteForceAnswer(g, q);
  const uint64_t n = want.size();

  // Runs MJoin along `order` with a collecting sink and with a null sink.
  // Both must return min(limit, n) occurrences and the same stats; the sink
  // must see distinct answers, all of them when limit >= n.
  auto check = [&](const Rig& rig, std::span<const QueryNodeId> order,
                   uint64_t limit, const std::string& what) {
    MJoinOptions opts;
    opts.limit = limit;
    std::vector<Occurrence> tuples;
    MJoinStats sink_stats;
    MJoinStats count_stats;
    const uint64_t expected = std::min(limit, n);
    EXPECT_EQ(MJoin(q, rig, order, CollectInto(&tuples), opts, &sink_stats),
              expected)
        << what;
    EXPECT_EQ(MJoin(q, rig, order, nullptr, opts, &count_stats), expected)
        << what;
    std::set<std::vector<NodeId>> got(tuples.begin(), tuples.end());
    EXPECT_EQ(got.size(), tuples.size()) << what << ": duplicates";
    if (limit >= n) {
      EXPECT_EQ(got, want) << what;
    } else {
      EXPECT_TRUE(std::includes(want.begin(), want.end(), got.begin(),
                                got.end()))
          << what;
    }
    // Counting the last step instead of visiting it changes no statistic.
    EXPECT_EQ(count_stats.occurrences, sink_stats.occurrences) << what;
    EXPECT_EQ(count_stats.intersections, sink_stats.intersections) << what;
    EXPECT_EQ(count_stats.candidates_scanned, sink_stats.candidates_scanned)
        << what;
    EXPECT_EQ(count_stats.max_depth_reached, sink_stats.max_depth_reached)
        << what;
  };

  bool saw_full_row = false;
  bool saw_empty_row = false;
  for (bool skip_simulation : {false, true}) {
    Rig rig = BuildTestRig(ctx, q, !skip_simulation);
    const std::string rig_name =
        skip_simulation ? "match-set RIG" : "simulated RIG";
    if (!rig.AnyEmpty()) {
      for (QueryEdgeId e = 0; e < q.NumEdges(); ++e) {
        const QueryEdge& edge = q.Edge(e);
        auto census = [&](const Bitmap& row, const Bitmap& cos) {
          saw_full_row |= row.Cardinality() == cos.Cardinality();
          saw_empty_row |= row.Empty();
        };
        rig.Cos(edge.from).ForEach([&](NodeId vp) {
          census(rig.Forward(e, vp), rig.Cos(edge.to));
        });
        rig.Cos(edge.to).ForEach([&](NodeId vq) {
          census(rig.Backward(e, vq), rig.Cos(edge.from));
        });
      }
    }

    auto order = ComputeSearchOrder(q, rig, OrderStrategy::kJO);
    for (uint64_t limit : {uint64_t{1}, n - 1, n, n + 1,
                           std::numeric_limits<uint64_t>::max()}) {
      check(rig, order, limit,
            rig_name + ", JO order, limit " + std::to_string(limit));
    }
    std::vector<QueryNodeId> perm(q.NumNodes());
    std::iota(perm.begin(), perm.end(), 0);
    do {
      std::string name = rig_name + ", order";
      for (QueryNodeId u : perm) name += " " + std::to_string(u);
      check(rig, perm, std::numeric_limits<uint64_t>::max(), name);
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
  // Each row is read by the permutations that start with its edge's two
  // ends, so both shortcuts ran: a full row is left out of the
  // intersection, an empty one ends the step.
  EXPECT_EQ(saw_full_row, p.has_full_row);
  EXPECT_TRUE(saw_empty_row);
}

TEST_P(RigMJoinPropertyTest, RigEdgesAreExactlyTheMatchingPairs) {
  // For every query edge e = (p, q) and every vp in cos(p), Forward(e, vp)
  // holds exactly the vq in cos(q) that e's pair test accepts, and for
  // every vq in cos(q), Backward(e, vq) exactly the vp in cos(p) (so both
  // rows lie within cos, as MJoin assumes): the row walk for child edges,
  // the index or the hop-limited BFS for descendant ones, from simulated
  // and from bare match sets. The case's graph is checked as generated and
  // with a self-loop on every third node, under the case's query and under
  // one whose descendant edges join nodes of one label. A node then lies
  // in both cos(p) and cos(q), so the pair (v, v) is probed: it is an edge
  // iff v's component is cyclic. A third query has a child, a descendant
  // and a bounded loop: cos(p) of a loop (p, p) holds only nodes v whose
  // pair (v, v) the loop accepts, and its edges are exactly those pairs.
  const EndToEndCase& p = GetParam();
  GeneratorOptions gopts{.num_nodes = 50, .num_edges = 170, .num_labels = 4,
                         .seed = p.seed};
  const Graph generated =
      p.dag_data ? GenerateRandomDag(gopts) : GeneratePowerLaw(gopts);
  std::optional<PatternQuery> same_label =
      ParsePattern("(x:0)=>(y:0), (y)=>(z:0), (x)->(w:1)");
  std::optional<PatternQuery> loops = ParsePattern(
      "(x:0)->(x), (x)=>(y:0), (y)=>(y), (y)->(z:1), (z)=>(z)");
  ASSERT_TRUE(same_label.has_value() && loops.has_value());
  std::vector<PatternQuery> queries = {
      GenerateRandomQuery({.num_nodes = p.q_nodes,
                           .num_edges = p.q_edges,
                           .num_labels = 4,
                           .variant = QueryVariant::kHybrid,
                           .seed = p.seed * 31 + 5}),
      *same_label, *loops};
  const char* const kQueryNames[] = {" case query", " same-label query",
                                     " loop query"};
  // Every other descendant edge is bounded to 2 hops: in the loop query,
  // (x)=>(y) and (z)=>(z).
  for (PatternQuery& q : queries) {
    std::vector<QueryEdge> edges = q.Edges();
    bool bound = true;
    for (QueryEdge& edge : edges) {
      if (edge.kind != EdgeKind::kDescendant) continue;
      if (bound) edge.max_hops = 2;
      bound = !bound;
    }
    q = PatternQuery::FromParts(q.Labels(), edges);
  }

  uint64_t checked = 0;
  uint64_t checked_loop_rows = 0;
  bool saw_acyclic_self_pair = false;
  bool saw_cyclic_self_pair = false;
  for (bool self_loops : {false, true}) {
    const Graph g = self_loops ? WithSelfLoops(generated, 3) : generated;
    auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
    MatchContext ctx(g, *reach);
    const Condensation& cond = reach->condensation();
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const PatternQuery& q = queries[qi];
      for (bool skip_simulation : {false, true}) {
        Rig rig = BuildTestRig(ctx, q, !skip_simulation);
        if (rig.AnyEmpty()) continue;  // expansion is skipped altogether
        const std::string where =
            std::string(self_loops ? "self-loops" : "generated") +
            kQueryNames[qi] +
            (skip_simulation ? " match sets" : " simulated");
        for (QueryEdgeId e = 0; e < q.NumEdges(); ++e) {
          const QueryEdge& edge = q.Edge(e);
          if (edge.from == edge.to) {
            rig.Cos(edge.from).ForEach([&](NodeId v) {
              EXPECT_TRUE(ctx.EdgePairMatch(edge, v, v))
                  << "loop " << e << " v " << v << ", " << where;
              Bitmap diagonal;
              diagonal.Add(v);
              EXPECT_EQ(rig.Forward(e, v), diagonal) << where;
              EXPECT_EQ(rig.Backward(e, v), diagonal) << where;
              ++checked_loop_rows;
            });
            continue;
          }
          rig.Cos(edge.from).ForEach([&](NodeId vp) {
            Bitmap want;
            rig.Cos(edge.to).ForEach([&](NodeId vq) {
              if (ctx.EdgePairMatch(edge, vp, vq)) want.Add(vq);
            });
            EXPECT_EQ(rig.Forward(e, vp), want)
                << "edge " << e << " vp " << vp << ", " << where;
            ++checked;
            if (edge.kind == EdgeKind::kDescendant &&
                rig.Cos(edge.to).Contains(vp)) {
              bool& saw = cond.IsCyclic(cond.Component(vp))
                              ? saw_cyclic_self_pair
                              : saw_acyclic_self_pair;
              saw = true;
            }
          });
          rig.Cos(edge.to).ForEach([&](NodeId vq) {
            Bitmap want;
            rig.Cos(edge.from).ForEach([&](NodeId vp) {
              if (ctx.EdgePairMatch(edge, vp, vq)) want.Add(vp);
            });
            EXPECT_EQ(rig.Backward(e, vq), want)
                << "edge " << e << " vq " << vq << ", " << where;
            ++checked;
          });
        }
      }
    }
  }
  EXPECT_GT(checked, 0u);
  EXPECT_GT(checked_loop_rows, 0u);
  // Some descendant edge's row was checked for a vp of cos(q) in an
  // acyclic component (no self-pair) and one in a cyclic component.
  EXPECT_TRUE(saw_acyclic_self_pair);
  EXPECT_TRUE(saw_cyclic_self_pair);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RigMJoinPropertyTest,
    ::testing::Values(EndToEndCase{"tree4", 1, 4, 3, true},
                      EndToEndCase{"diamond", 2, 4, 4, false},
                      EndToEndCase{"five_dense", 3, 5, 8, false},
                      EndToEndCase{"six_sparse", 4, 6, 6, true},
                      EndToEndCase{"clique4", 5, 4, 6, false},
                      EndToEndCase{"seven", 6, 7, 9, true,
                                   /*has_full_row=*/false},
                      EndToEndCase{"another", 7, 5, 6, false},
                      EndToEndCase{"eighth", 8, 6, 9, false}),
    [](const ::testing::TestParamInfo<EndToEndCase>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace rigpm
