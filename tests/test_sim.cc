#include "sim/fbsim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>

#include "graph/generators.h"
#include "query/query_generator.h"
#include "sim/fbsim_bas.h"
#include "sim/fbsim_dag.h"
#include "sim/prefilter.h"
#include "test_util.h"

namespace rigpm {
namespace {

using ::rigpm::testing::BruteForceAnswer;
using ::rigpm::testing::PaperExample;
using ::rigpm::testing::WithSelfLoops;

std::vector<NodeId> Sorted(const Bitmap& b) { return b.ToVector(); }

bool IsSubset(const Bitmap& a, const Bitmap& b) {
  return a.ForEach([&b](NodeId v) { return b.Contains(v); });
}

class SimFixture : public ::testing::Test {
 protected:
  SimFixture()
      : graph_(PaperExample::MakeGraph()),
        query_(PaperExample::MakeQuery()),
        reach_(BuildReachabilityIndex(graph_, ReachKind::kBfl)),
        ctx_(graph_, *reach_) {}

  Graph graph_;
  PatternQuery query_;
  std::unique_ptr<ReachabilityIndex> reach_;
  MatchContext ctx_;
};

// Table 1 of the paper: F, B and FB simulations of Q on G.
TEST_F(SimFixture, Table1ForwardSimulation) {
  CandidateSets f = ForwardSimulation(ctx_, query_);
  EXPECT_EQ(Sorted(f[0]), (std::vector<NodeId>{PaperExample::a1,
                                               PaperExample::a2}));
  EXPECT_EQ(Sorted(f[1]),
            (std::vector<NodeId>{PaperExample::b0, PaperExample::b1,
                                 PaperExample::b2}));
  EXPECT_EQ(Sorted(f[2]),
            (std::vector<NodeId>{PaperExample::c0, PaperExample::c1,
                                 PaperExample::c2}));
}

TEST_F(SimFixture, Table1BackwardSimulation) {
  CandidateSets b = BackwardSimulation(ctx_, query_);
  EXPECT_EQ(Sorted(b[0]),
            (std::vector<NodeId>{PaperExample::a0, PaperExample::a1,
                                 PaperExample::a2}));
  EXPECT_EQ(Sorted(b[1]),
            (std::vector<NodeId>{PaperExample::b0, PaperExample::b2,
                                 PaperExample::b3}));
  EXPECT_EQ(Sorted(b[2]),
            (std::vector<NodeId>{PaperExample::c0, PaperExample::c1,
                                 PaperExample::c2}));
}

TEST_F(SimFixture, Table1DoubleSimulation) {
  for (SimAlgorithm alg :
       {SimAlgorithm::kBas, SimAlgorithm::kDag, SimAlgorithm::kDagMap}) {
    CandidateSets fb = ComputeDoubleSimulation(
        ctx_, query_, InitialMatchSets(graph_, query_), alg);
    EXPECT_EQ(Sorted(fb[0]), (std::vector<NodeId>{PaperExample::a1,
                                                  PaperExample::a2}))
        << SimAlgorithmName(alg);
    EXPECT_EQ(Sorted(fb[1]), (std::vector<NodeId>{PaperExample::b0,
                                                  PaperExample::b2}))
        << SimAlgorithmName(alg);
    EXPECT_EQ(Sorted(fb[2]),
              (std::vector<NodeId>{PaperExample::c0, PaperExample::c1,
                                   PaperExample::c2}))
        << SimAlgorithmName(alg);
  }
}

TEST_F(SimFixture, AllChildCheckModesAgree) {
  for (ChildCheckMode mode :
       {ChildCheckMode::kBinSearch, ChildCheckMode::kBitIter,
        ChildCheckMode::kBitBat}) {
    SimOptions opts;
    opts.child_check = mode;
    opts.batch_reachability = (mode == ChildCheckMode::kBitBat);
    CandidateSets fb =
        FBSimBas(ctx_, query_, InitialMatchSets(graph_, query_), opts);
    EXPECT_EQ(Sorted(fb[1]), (std::vector<NodeId>{PaperExample::b0,
                                                  PaperExample::b2}))
        << ChildCheckModeName(mode);
  }
}

TEST_F(SimFixture, StatsArePopulated) {
  SimStats stats;
  FBSimBas(ctx_, query_, InitialMatchSets(graph_, query_), SimOptions{},
           &stats);
  EXPECT_GE(stats.passes, 1);
  EXPECT_GT(stats.pair_checks, 0u);
  EXPECT_GT(stats.pruned_nodes, 0u);  // a0, b1, b3 are pruned
}

TEST_F(SimFixture, PassCapIsSoundApproximation) {
  SimOptions capped;
  capped.max_passes = 1;
  CandidateSets approx =
      FBSimBas(ctx_, query_, InitialMatchSets(graph_, query_), capped);
  CandidateSets exact =
      FBSimBas(ctx_, query_, InitialMatchSets(graph_, query_), SimOptions{});
  for (QueryNodeId v = 0; v < query_.NumNodes(); ++v) {
    EXPECT_TRUE(IsSubset(exact[v], approx[v])) << v;
  }
}

// Empty-answer early termination (the Fig. 4/5 behaviour): a query whose
// label exists but whose structure has no match must yield an all-empty FB.
TEST(Sim, EmptyAnswerDetected) {
  // Data: a -> b only. Query: a -> b -> c with c's label present but never
  // below a b.
  Graph g = Graph::FromEdges({0, 1, 2}, {{0, 1}});
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);
  PatternQuery q = PatternQuery::FromParts(
      {0, 1, 2},
      {{0, 1, EdgeKind::kChild}, {1, 2, EdgeKind::kDescendant}});
  CandidateSets fb = FBSim(ctx, q, InitialMatchSets(g, q));
  for (const Bitmap& b : fb) EXPECT_TRUE(b.Empty());
}

TEST(Sim, PreFilterWeakerThanDoubleSim) {
  Graph g = PaperExample::MakeGraph();
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);
  PatternQuery q = PaperExample::MakeQuery();
  CandidateSets pre = PreFilter(ctx, q);
  CandidateSets fb = FBSimBas(ctx, q, InitialMatchSets(g, q));
  for (QueryNodeId v = 0; v < q.NumNodes(); ++v) {
    EXPECT_TRUE(IsSubset(fb[v], pre[v])) << v;
  }
}

TEST(Sim, BatchBfsHelpersMatchDefinition) {
  Graph g = PaperExample::MakeGraph();
  Bitmap targets = {PaperExample::c0};
  Bitmap reaching = NodesReaching(g, targets);
  // Everything with a path into c0.
  EXPECT_TRUE(reaching.Contains(PaperExample::b0));
  EXPECT_TRUE(reaching.Contains(PaperExample::b1));
  EXPECT_TRUE(reaching.Contains(PaperExample::b2));
  EXPECT_TRUE(reaching.Contains(PaperExample::a1));
  EXPECT_FALSE(reaching.Contains(PaperExample::b3));
  EXPECT_FALSE(reaching.Contains(PaperExample::c0));  // no cycle

  Bitmap sources = {PaperExample::b2};
  Bitmap reachable = NodesReachableFrom(g, sources);
  EXPECT_EQ(Sorted(reachable),
            (std::vector<NodeId>{PaperExample::b0, PaperExample::c0,
                                 PaperExample::c1, PaperExample::c2}));
}

// ---------------------------------------------------------------------------
// Batch prune kernels: the CSR-mark child prune, the condensation sweep and
// the hop-limited ball must give exactly what the per-pair probes give.
// ---------------------------------------------------------------------------

// Empty, one node, a random half of the nodes, or every node.
Bitmap RandomSet(uint32_t n, int shape, std::mt19937_64& rng) {
  std::vector<NodeId> nodes(n);
  for (NodeId v = 0; v < n; ++v) nodes[v] = v;
  std::shuffle(nodes.begin(), nodes.end(), rng);
  const size_t size[] = {0, 1, n / 2, n};
  nodes.resize(size[shape]);
  std::sort(nodes.begin(), nodes.end());
  return Bitmap::FromSorted(nodes);
}

// a ∩ b, through the multiway intersection.
Bitmap Intersect(const Bitmap& a, const Bitmap& b) {
  const Bitmap* inputs[] = {&a, &b};
  std::vector<uint32_t> values;
  Bitmap::AndManyInto(inputs, &values);
  return Bitmap::FromSorted(values);
}

struct PruneResult {
  Bitmap src;
  Bitmap dst;
};

// Forward-prunes a copy of `src` and backward-prunes a copy of `dst` along
// a single edge 0 -> 1 of `kind`, bounded to `max_hops` edges when > 0.
PruneResult PruneBothSides(const MatchContext& ctx, EdgeKind kind,
                           uint32_t max_hops, const Bitmap& src,
                           const Bitmap& dst, const SimOptions& opts) {
  QueryEdge e{.from = 0, .to = 1, .kind = kind, .max_hops = max_hops};
  PruneResult r{src, dst};
  ForwardPruneEdge(ctx, e, &r.src, dst, opts, nullptr);
  BackwardPruneEdge(ctx, e, src, &r.dst, opts, nullptr);
  return r;
}

// Child, unbounded descendant, and descendant bounded to 1, 2 and 3 hops.
constexpr std::pair<EdgeKind, uint32_t> kEdgeCases[] = {
    {EdgeKind::kChild, 0},      {EdgeKind::kDescendant, 0},
    {EdgeKind::kDescendant, 1}, {EdgeKind::kDescendant, 2},
    {EdgeKind::kDescendant, 3}};

TEST(PruneKernels, BatchEqualsPerPairOnRandomGraphs) {
  const SimOptions batch;  // kBitBat + batch_reachability: the defaults
  SimOptions per_pair;
  per_pair.child_check = ChildCheckMode::kBinSearch;
  per_pair.batch_reachability = false;

  bool saw_multi_node = false, saw_cyclic_single = false,
       saw_acyclic_single = false;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    for (bool dag : {false, true}) {
      const uint32_t n = std::uniform_int_distribution<uint32_t>(20, 200)(rng);
      GeneratorOptions gopts{.num_nodes = n, .num_edges = 2ull * n,
                             .num_labels = 3, .seed = seed};
      Graph g = WithSelfLoops(
          dag ? GenerateRandomDag(gopts) : GeneratePowerLaw(gopts), 7);
      for (ReachKind kind : {ReachKind::kBfs, ReachKind::kTransitiveClosure,
                             ReachKind::kBfl}) {
        auto reach = BuildReachabilityIndex(g, kind);
        MatchContext ctx(g, *reach);
        const Condensation& cond = reach->condensation();
        std::vector<uint32_t> comp_size(cond.NumComponents(), 0);
        for (NodeId v = 0; v < n; ++v) ++comp_size[cond.Component(v)];
        for (uint32_t c = 0; c < cond.NumComponents(); ++c) {
          saw_multi_node |= comp_size[c] > 1;
          saw_cyclic_single |= comp_size[c] == 1 && cond.IsCyclic(c);
          saw_acyclic_single |= !cond.IsCyclic(c);
        }
        for (int src_shape = 0; src_shape < 4; ++src_shape) {
          for (int dst_shape = 0; dst_shape < 4; ++dst_shape) {
            Bitmap src = RandomSet(n, src_shape, rng);
            Bitmap dst = RandomSet(n, dst_shape, rng);
            const std::string where =
                "seed " + std::to_string(seed) + (dag ? " dag " : " pl ") +
                ReachKindName(kind) + " shapes " + std::to_string(src_shape) +
                "/" + std::to_string(dst_shape);
            for (const auto& [ek, max_hops] : kEdgeCases) {
              const std::string edge =
                  where + (ek == EdgeKind::kChild
                               ? " child"
                               : " descendant, max_hops " +
                                     std::to_string(max_hops));
              PruneResult fast =
                  PruneBothSides(ctx, ek, max_hops, src, dst, batch);
              PruneResult slow =
                  PruneBothSides(ctx, ek, max_hops, src, dst, per_pair);
              EXPECT_EQ(fast.src, slow.src) << edge;
              EXPECT_EQ(fast.dst, slow.dst) << edge;
              if (ek == EdgeKind::kDescendant) {
                EXPECT_EQ(fast.src,
                          Intersect(src, NodesReaching(g, dst, max_hops)))
                    << edge;
                EXPECT_EQ(fast.dst,
                          Intersect(dst, NodesReachableFrom(g, src, max_hops)))
                    << edge;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_TRUE(saw_multi_node);
  EXPECT_TRUE(saw_cyclic_single);
  EXPECT_TRUE(saw_acyclic_single);
}

// u ≺ v needs at least one edge (Definition 2.2): a node reaches itself only
// through a cycle.
TEST(PruneKernels, SelfReachabilityNeedsACycle) {
  // 0 -> 1: acyclic singletons. 2 -> 2: a self-loop. 3 <-> 4: a 2-cycle.
  Graph g = Graph::FromEdges({0, 0, 0, 0, 0},
                             {{0, 1}, {2, 2}, {3, 4}, {4, 3}});
  const QueryEdge e{.from = 0, .to = 1, .kind = EdgeKind::kDescendant};
  for (ReachKind kind : {ReachKind::kBfs, ReachKind::kTransitiveClosure,
                         ReachKind::kBfl}) {
    auto reach = BuildReachabilityIndex(g, kind);
    MatchContext ctx(g, *reach);
    for (const auto& [node, kept] : std::vector<std::pair<NodeId, bool>>{
             {1, false}, {2, true}, {3, true}, {4, true}}) {
      Bitmap src = {node};
      Bitmap dst = {node};
      ForwardPruneEdge(ctx, e, &src, Bitmap{node}, SimOptions{}, nullptr);
      BackwardPruneEdge(ctx, e, Bitmap{node}, &dst, SimOptions{}, nullptr);
      EXPECT_EQ(src.Contains(node), kept) << ReachKindName(kind) << node;
      EXPECT_EQ(dst.Contains(node), kept) << ReachKindName(kind) << node;
    }
    // The 2-cycle keeps both of its nodes on both sides.
    Bitmap pair = {3, 4};
    Bitmap src = pair, dst = pair;
    ForwardPruneEdge(ctx, e, &src, pair, SimOptions{}, nullptr);
    BackwardPruneEdge(ctx, e, pair, &dst, SimOptions{}, nullptr);
    EXPECT_EQ(src, pair) << ReachKindName(kind);
    EXPECT_EQ(dst, pair) << ReachKindName(kind);
  }
}

// The simulation starts from the sets it is given, not from ms(q): with c's
// seed emptied, nothing can match a -> b -> c.
TEST(Sim, DoubleSimulationStartsFromItsSeed) {
  // a1 -> b1 -> c1.
  Graph g = Graph::FromEdges({0, 1, 2}, {{0, 1}, {1, 2}});
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);
  PatternQuery q = PatternQuery::FromParts(
      {0, 1, 2}, {{0, 1, EdgeKind::kChild}, {1, 2, EdgeKind::kChild}});
  CandidateSets seed = InitialMatchSets(g, q);
  seed[2].Clear();
  CandidateSets cos = ComputeDoubleSimulation(ctx, q, seed,
                                              SimAlgorithm::kDagMap,
                                              {.max_passes = 3});
  ASSERT_EQ(cos.size(), 3u);
  for (const Bitmap& b : cos) EXPECT_TRUE(b.Empty()) << b.Cardinality();
}

// ---------------------------------------------------------------------------
// Property tests on random graph/query pairs.
// ---------------------------------------------------------------------------

struct SimCase {
  const char* label;
  uint64_t seed;
  uint32_t q_nodes;
  uint32_t q_edges;
  bool dag_data;
};

class SimPropertyTest : public ::testing::TestWithParam<SimCase> {};

// Invariants (Section 4.2): os(q) ⊆ FB(q) ⊆ ms(q), all algorithms compute
// the same (unique) double simulation, and the simulation is a fixpoint.
TEST_P(SimPropertyTest, Invariants) {
  const SimCase& p = GetParam();
  GeneratorOptions gopts{.num_nodes = 60, .num_edges = 200, .num_labels = 4,
                         .seed = p.seed};
  Graph g = p.dag_data ? GenerateRandomDag(gopts) : GeneratePowerLaw(gopts);
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);

  PatternQuery q = GenerateRandomQuery({.num_nodes = p.q_nodes,
                                        .num_edges = p.q_edges,
                                        .num_labels = 4,
                                        .variant = QueryVariant::kHybrid,
                                        .seed = p.seed * 7 + 1});

  CandidateSets ms = InitialMatchSets(g, q);
  CandidateSets bas = FBSimBas(ctx, q, ms);
  CandidateSets dag = ComputeDoubleSimulation(ctx, q, ms, SimAlgorithm::kDag);
  CandidateSets tuned =
      ComputeDoubleSimulation(ctx, q, ms, SimAlgorithm::kDagMap);

  // Occurrence sets from the brute-force answer.
  auto answer = BruteForceAnswer(g, q);
  CandidateSets os(q.NumNodes());
  for (const auto& tuple : answer) {
    for (QueryNodeId v = 0; v < q.NumNodes(); ++v) os[v].Add(tuple[v]);
  }

  for (QueryNodeId v = 0; v < q.NumNodes(); ++v) {
    EXPECT_EQ(bas[v], dag[v]) << "node " << v;
    EXPECT_EQ(bas[v], tuned[v]) << "node " << v;
    EXPECT_TRUE(IsSubset(os[v], bas[v])) << "os ⊄ FB at node " << v;
    EXPECT_TRUE(IsSubset(bas[v], ms[v])) << "FB ⊄ ms at node " << v;
  }

  // Fixpoint: re-running any prune pass changes nothing.
  CandidateSets again = bas;
  SimOptions opts;
  bool changed = false;
  for (const QueryEdge& e : q.Edges()) {
    changed |= ForwardPruneEdge(ctx, e, &again[e.from], again[e.to], opts,
                                nullptr);
    changed |= BackwardPruneEdge(ctx, e, again[e.from], &again[e.to], opts,
                                 nullptr);
  }
  EXPECT_FALSE(changed);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SimPropertyTest,
    ::testing::Values(SimCase{"small_tree_dag", 1, 4, 3, true},
                      SimCase{"diamond_dag", 2, 4, 4, true},
                      SimCase{"six_node_cyclic_data", 3, 6, 8, false},
                      SimCase{"dense_query", 4, 5, 9, false},
                      SimCase{"larger_query", 5, 8, 12, true},
                      SimCase{"another_seed", 6, 6, 7, false}),
    [](const ::testing::TestParamInfo<SimCase>& info) {
      return info.param.label;
    });

// Directed-cyclic queries must go through the Dag+Δ path and still agree
// with the baseline.
TEST(Sim, CyclicQueryDagDeltaAgreesWithBas) {
  Graph g = GeneratePowerLaw({.num_nodes = 80, .num_edges = 320,
                              .num_labels = 3, .seed = 10});
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);
  // Directed 3-cycle query.
  PatternQuery q = PatternQuery::FromParts(
      {0, 1, 2},
      {{0, 1, EdgeKind::kChild},
       {1, 2, EdgeKind::kDescendant},
       {2, 0, EdgeKind::kDescendant}});
  CandidateSets bas = FBSimBas(ctx, q, InitialMatchSets(g, q));
  CandidateSets delta = FBSim(ctx, q, InitialMatchSets(g, q));
  for (QueryNodeId v = 0; v < q.NumNodes(); ++v) {
    EXPECT_EQ(bas[v], delta[v]) << v;
  }
}

}  // namespace
}  // namespace rigpm
