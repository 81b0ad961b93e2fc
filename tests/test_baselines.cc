#include <gtest/gtest.h>

#include <set>

#include "baseline/catalog.h"
#include "baseline/iso_engine.h"
#include "baseline/jm_engine.h"
#include "baseline/tm_engine.h"
#include "baseline/wcoj_engine.h"
#include "bench_util/count_gate.h"
#include "engine/gm_engine.h"
#include "graph/generators.h"
#include "query/pattern_parser.h"
#include "query/query_generator.h"
#include "test_util.h"

namespace rigpm {
namespace {

using ::rigpm::testing::BruteForceAnswer;
using ::rigpm::testing::PaperExample;
using ::rigpm::testing::WithSelfLoops;

std::set<std::vector<NodeId>> Collect(const std::vector<Occurrence>& v) {
  return {v.begin(), v.end()};
}

OccurrenceSink CollectInto(std::vector<Occurrence>* out) {
  return [out](const Occurrence& t) {
    out->push_back(t);
    return true;
  };
}

// The answers of `answer` that map no two query nodes to one data node:
// what an isomorphism engine returns.
std::set<std::vector<NodeId>> Injective(
    const std::set<std::vector<NodeId>>& answer) {
  std::set<std::vector<NodeId>> out;
  for (const auto& t : answer) {
    if (std::set<NodeId>(t.begin(), t.end()).size() == t.size()) out.insert(t);
  }
  return out;
}

class BaselineFixture : public ::testing::Test {
 protected:
  BaselineFixture()
      : graph_(PaperExample::MakeGraph()),
        query_(PaperExample::MakeQuery()),
        reach_(BuildReachabilityIndex(graph_, ReachKind::kBfl)),
        ctx_(graph_, *reach_) {}

  Graph graph_;
  PatternQuery query_;
  std::unique_ptr<ReachabilityIndex> reach_;
  MatchContext ctx_;
};

TEST_F(BaselineFixture, JmMatchesPaperAnswer) {
  std::vector<Occurrence> tuples;
  BaselineResult r = JmEvaluate(ctx_, query_, {}, CollectInto(&tuples));
  EXPECT_EQ(r.status, EvalStatus::kOk);
  EXPECT_EQ(r.num_occurrences, 4u);
  EXPECT_EQ(Collect(tuples), PaperExample::ExpectedAnswer());
  EXPECT_GT(r.Counter("peak_intermediate"), 0u);
  EXPECT_GT(r.Counter("plans_considered"), 0u);
  std::string phases;
  for (const PhaseTiming& pt : r.phase_timings) {
    phases += pt.name + std::string(" ");
  }
  EXPECT_EQ(phases, "Relations Plan Join ");
}

TEST_F(BaselineFixture, TmMatchesPaperAnswer) {
  std::vector<Occurrence> tuples;
  BaselineResult r = TmEvaluate(ctx_, query_, {}, CollectInto(&tuples));
  EXPECT_EQ(r.status, EvalStatus::kOk);
  EXPECT_EQ(r.num_occurrences, 4u);
  EXPECT_EQ(Collect(tuples), PaperExample::ExpectedAnswer());
  // Tree solutions >= final answers (the non-tree edge filters).
  EXPECT_GE(r.Counter("tree_solutions"), r.num_occurrences);
  EXPECT_GT(r.Counter("rig_nodes"), 0u);
  std::string phases;
  for (const PhaseTiming& pt : r.phase_timings) {
    phases += pt.name + std::string(" ");
  }
  EXPECT_EQ(phases, "Prefilter Simulate BuildRig Enumerate ");
}

TEST_F(BaselineFixture, JmReportsOutOfMemory) {
  BaselineResult r = JmEvaluate(ctx_, query_, {}, nullptr, true,
                                /*max_intermediate_tuples=*/2);
  EXPECT_EQ(r.status, EvalStatus::kOutOfMemory);
}

TEST_F(BaselineFixture, JmHonorsLimit) {
  BaselineResult r = JmEvaluate(ctx_, query_, {.limit = 2});
  EXPECT_EQ(r.num_occurrences, 2u);
}

TEST_F(BaselineFixture, LimitZeroEmitsNothing) {
  GmEngine gm(graph_);
  WcojEngine wcoj(graph_);
  ASSERT_EQ(wcoj.MaterializeClosure(1 << 26, nullptr), EvalStatus::kOk);
  PatternQuery child = *ParsePattern("(a:0)->(b:1)");
  const std::vector<NamedEngine> engines = {
      GmVariant("GM", gm), Jm(ctx_), Tm(ctx_), Wcoj("WCOJ", wcoj),
      Iso(graph_)};
  for (const NamedEngine& engine : engines) {
    for (const PatternQuery& q : {query_, child}) {
      std::vector<Occurrence> tuples;
      BaselineResult r =
          engine.evaluate(q, {.limit = 0}, CollectInto(&tuples));
      EXPECT_EQ(r.num_occurrences, 0u) << engine.name;
      EXPECT_TRUE(tuples.empty()) << engine.name;
    }
  }
}

TEST_F(BaselineFixture, WcojUnsupportedWithoutClosure) {
  WcojEngine wcoj(graph_);
  BaselineResult r = wcoj.Evaluate(query_);  // has a descendant edge
  EXPECT_EQ(r.status, EvalStatus::kUnsupported);
}

TEST_F(BaselineFixture, WcojWithClosureMatchesAnswer) {
  WcojEngine wcoj(graph_);
  double build_ms = 0.0;
  ASSERT_EQ(wcoj.MaterializeClosure(/*max_bytes=*/1 << 26, &build_ms),
            EvalStatus::kOk);
  std::vector<Occurrence> tuples;
  BaselineResult r = wcoj.Evaluate(query_, {}, CollectInto(&tuples));
  EXPECT_EQ(r.status, EvalStatus::kOk);
  EXPECT_EQ(Collect(tuples), PaperExample::ExpectedAnswer());
}

TEST_F(BaselineFixture, WcojClosureBudgetEnforced) {
  WcojEngine wcoj(graph_);
  EXPECT_EQ(wcoj.MaterializeClosure(/*max_bytes=*/1, nullptr),
            EvalStatus::kOutOfMemory);
  EXPECT_FALSE(wcoj.HasClosure());
}

TEST(Catalog, BuildsAndRespectsBudget) {
  Graph g = GeneratePowerLaw({.num_nodes = 300, .num_edges = 1500,
                              .num_labels = 8, .seed = 3});
  CatalogResult ok = BuildCatalog(g, /*max_entries=*/1u << 24);
  EXPECT_EQ(ok.status, EvalStatus::kOk);
  EXPECT_GT(ok.entries, 0u);
  CatalogResult oom = BuildCatalog(g, /*max_entries=*/4);
  EXPECT_EQ(oom.status, EvalStatus::kOutOfMemory);
}

TEST(Catalog, CostGrowsWithLabelCount) {
  GeneratorOptions base{.num_nodes = 400, .num_edges = 2500, .num_labels = 2,
                        .seed = 5};
  Graph few = GenerateErdosRenyi(base);
  base.num_labels = 30;
  Graph many = GenerateErdosRenyi(base);
  CatalogResult a = BuildCatalog(few, 1u << 26);
  CatalogResult b = BuildCatalog(many, 1u << 26);
  EXPECT_GT(b.entries, a.entries);  // more labels -> more catalog entries
}

// --- ISO.

TEST(Iso, RejectsDescendantEdges) {
  Graph g = PaperExample::MakeGraph();
  BaselineResult r = IsoEvaluate(g, PaperExample::MakeQuery());
  EXPECT_EQ(r.status, EvalStatus::kUnsupported);
}

TEST(Iso, InjectivityExcludesFoldedMatches) {
  // Data: single b with two a-parents; query: two distinct A nodes sharing
  // the child B. Homomorphisms may map both A's to the same a; isomorphism
  // may not.
  Graph g = Graph::FromEdges({0, 0, 1}, {{0, 2}, {1, 2}});
  PatternQuery q = PatternQuery::FromParts(
      {0, 0, 1},
      {{0, 2, EdgeKind::kChild}, {1, 2, EdgeKind::kChild}});
  BaselineResult iso = IsoEvaluate(g, q);
  EXPECT_EQ(iso.status, EvalStatus::kOk);
  EXPECT_EQ(iso.num_occurrences, 2u);  // (a0,a1), (a1,a0)
  // Homomorphic count includes the folded assignments.
  EXPECT_EQ(BruteForceAnswer(g, q).size(), 4u);
}

TEST(Iso, AgreesWithInjectiveBruteForceOnRandomInputs) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Graph g = GeneratePowerLaw({.num_nodes = 60, .num_edges = 240,
                                .num_labels = 3, .seed = seed});
    PatternQuery q = GenerateRandomQuery({.num_nodes = 4, .num_edges = 4,
                                          .num_labels = 3,
                                          .variant = QueryVariant::kChildOnly,
                                          .seed = seed + 100});
    BaselineResult iso = IsoEvaluate(g, q);
    ASSERT_EQ(iso.status, EvalStatus::kOk);
    EXPECT_EQ(iso.num_occurrences, Injective(BruteForceAnswer(g, q)).size())
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Query loops: an edge from a query node to itself.
// ---------------------------------------------------------------------------

// Node 0 has label 0, nodes 1-3 label 1; 1 has a self-loop and 2, 3 form a
// cycle, so all three lie on a cycle and only 1 has an edge to itself.
Graph LoopGraph() {
  return Graph::FromEdges({0, 1, 1, 1},
                          {{0, 1}, {1, 1}, {0, 2}, {2, 3}, {3, 2}});
}

TEST(QueryLoops, EveryEngineMatchesBruteForceOnTheLoopGraph) {
  Graph g = LoopGraph();
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);
  GmEngine gm(g);
  WcojEngine wcoj(g);
  ASSERT_EQ(wcoj.MaterializeClosure(1 << 20, nullptr), EvalStatus::kOk);
  const std::vector<NamedEngine> engines = {
      GmVariant("GM", gm), Jm(ctx), Tm(ctx), Wcoj("WCOJ", wcoj), Iso(g)};
  // Pattern -> brute-force count: 3 nodes on a cycle, 1 with a self-loop.
  const std::vector<std::pair<std::string, size_t>> cases = {
      {"(b:1)=>(b)", 3}, {"(b:1)->(b)", 1}, {"(a:0)->(b:1), (b)->(b)", 1},
      {"(a:0)->(b:1), (b)=>(b)", 2}, {"(b:1)=2>(b)", 3}};
  for (const auto& [pattern, count] : cases) {
    PatternQuery q = *ParsePattern(pattern);
    auto expected = BruteForceAnswer(g, q);
    ASSERT_EQ(expected.size(), count) << pattern;
    for (const NamedEngine& engine : engines) {
      std::vector<Occurrence> tuples;
      BaselineResult r = engine.evaluate(q, {}, CollectInto(&tuples));
      if (r.status == EvalStatus::kUnsupported) continue;  // WCOJ, ISO
      EXPECT_EQ(r.status, EvalStatus::kOk) << engine.name << " " << pattern;
      EXPECT_EQ(Collect(tuples), engine.kind == CountKind::kInjective
                                     ? Injective(expected)
                                     : expected)
          << engine.name << " " << pattern;
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-engine differential property: GM == JM == TM == (WCOJ with closure)
// == brute force, and ISO == the injective part of it, on random hybrid
// queries, some with a loop on one node.
// ---------------------------------------------------------------------------

enum class Loop { kNone, kChild, kDescendant, kBounded };

struct CrossCase {
  const char* label;
  uint64_t seed;
  uint32_t q_nodes;
  uint32_t q_edges;
  QueryVariant variant;
  Loop loop = Loop::kNone;
};

// The case's random query, with a loop on node 1 when the case asks for one.
PatternQuery CaseQuery(const CrossCase& p) {
  PatternQuery q = GenerateRandomQuery({.num_nodes = p.q_nodes,
                                        .num_edges = p.q_edges,
                                        .num_labels = 4,
                                        .variant = p.variant,
                                        .seed = p.seed * 3 + 11});
  if (p.loop == Loop::kNone) return q;
  std::vector<QueryEdge> edges = q.Edges();
  edges.push_back({1, 1,
                   p.loop == Loop::kChild ? EdgeKind::kChild
                                          : EdgeKind::kDescendant,
                   p.loop == Loop::kBounded ? 2u : 0u});
  return PatternQuery::FromParts(q.Labels(), std::move(edges));
}

class CrossEngineTest : public ::testing::TestWithParam<CrossCase> {};

TEST_P(CrossEngineTest, AllEnginesAgree) {
  const CrossCase& p = GetParam();
  Graph generated = GeneratePowerLaw({.num_nodes = 60, .num_edges = 220,
                                      .num_labels = 4, .seed = p.seed});
  // A self-loop on every third node gives a child loop something to match.
  Graph g = p.loop == Loop::kNone ? generated : WithSelfLoops(generated, 3);
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);
  PatternQuery q = CaseQuery(p);
  auto expected = BruteForceAnswer(g, q);
  if (p.loop != Loop::kNone) ASSERT_FALSE(expected.empty());
  bool bounded = false;
  for (const QueryEdge& e : q.Edges()) bounded = bounded || e.max_hops > 0;

  GmEngine gm(g);
  WcojEngine wcoj(g);
  ASSERT_EQ(wcoj.MaterializeClosure(1 << 28, nullptr), EvalStatus::kOk);
  const std::vector<NamedEngine> engines = {
      GmVariant("GM", gm), Jm(ctx), Tm(ctx), Wcoj("WCOJ", wcoj), Iso(g)};
  for (const NamedEngine& engine : engines) {
    std::vector<Occurrence> tuples;
    BaselineResult r = engine.evaluate(q, {}, CollectInto(&tuples));
    // WCOJ's closure ignores hop bounds; ISO takes child-only queries.
    if ((engine.name == "WCOJ" && bounded) ||
        (engine.name == "ISO" && q.NumDescendantEdges() > 0)) {
      EXPECT_EQ(r.status, EvalStatus::kUnsupported) << engine.name;
      continue;
    }
    ASSERT_EQ(r.status, EvalStatus::kOk) << engine.name;
    EXPECT_EQ(r.num_occurrences, tuples.size()) << engine.name;
    EXPECT_EQ(Collect(tuples), engine.kind == CountKind::kInjective
                                   ? Injective(expected)
                                   : expected)
        << engine.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CrossEngineTest,
    ::testing::Values(
        CrossCase{"hybrid_small", 1, 4, 4, QueryVariant::kHybrid},
        CrossCase{"hybrid_cyclic", 2, 5, 7, QueryVariant::kHybrid},
        CrossCase{"child_only", 3, 5, 6, QueryVariant::kChildOnly},
        CrossCase{"desc_only", 4, 4, 4, QueryVariant::kDescendantOnly},
        CrossCase{"hybrid_six", 5, 6, 8, QueryVariant::kHybrid},
        CrossCase{"child_clique", 6, 4, 6, QueryVariant::kChildOnly},
        CrossCase{"child_loop", 7, 3, 2, QueryVariant::kChildOnly,
                  Loop::kChild},
        CrossCase{"hybrid_child_loop", 8, 4, 4, QueryVariant::kHybrid,
                  Loop::kChild},
        CrossCase{"desc_loop", 18, 4, 4, QueryVariant::kHybrid,
                  Loop::kDescendant},
        CrossCase{"bounded_loop", 10, 4, 4, QueryVariant::kHybrid,
                  Loop::kBounded}),
    [](const ::testing::TestParamInfo<CrossCase>& info) {
      return info.param.label;
    });

// ---------------------------------------------------------------------------
// The paper benches' count gate (bench_util/count_gate.h).
// ---------------------------------------------------------------------------

// Inside a fixture, a bare Run names ::testing::Test::Run.
class CountGateTest : public BaselineFixture {
 protected:
  CountGateTest() : gm_(graph_) {}

  // GM's count plus `delta`, as an engine of the given kind.
  NamedEngine OffBy(int64_t delta, CountKind kind) {
    NamedEngine gm = GmVariant("GM", gm_);
    auto evaluate = [gm, delta](const PatternQuery& q,
                                const BaselineOptions& opts,
                                const OccurrenceSink& sink) {
      BaselineResult r = gm.evaluate(q, opts, sink);
      r.num_occurrences += delta;
      return r;
    };
    return {"fake", evaluate, kind};
  }

  GmEngine gm_;
  CountGate gate_;
};

TEST_F(CountGateTest, AgreeingEnginesPass) {
  const std::vector<NamedEngine> engines = {GmVariant("GM", gm_), Jm(ctx_),
                                            Tm(ctx_)};
  auto runs = rigpm::Run(engines, "paper", query_, &gate_, {});
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[2].result.num_occurrences, 4u);
  EXPECT_EQ(gate_.comparisons(), 2u);
  EXPECT_EQ(gate_.mismatches(), 0u);
  EXPECT_EQ(gate_.Finish(), 0);
}

TEST_F(CountGateTest, EngineOffByOneFails) {
  const std::vector<NamedEngine> engines = {
      GmVariant("GM", gm_), OffBy(1, CountKind::kHomomorphism)};
  rigpm::Run(engines, "paper", query_, &gate_, {});
  EXPECT_EQ(gate_.mismatches(), 1u);
  EXPECT_EQ(gate_.Finish(), 1);
}

TEST_F(CountGateTest, IsoAboveGmFailsAndBelowPasses) {
  const std::vector<NamedEngine> below = {
      GmVariant("GM", gm_), OffBy(-1, CountKind::kInjective)};
  rigpm::Run(below, "paper", query_, &gate_, {});
  EXPECT_EQ(gate_.mismatches(), 0u);
  const std::vector<NamedEngine> above = {
      GmVariant("GM", gm_), OffBy(1, CountKind::kInjective)};
  rigpm::Run(above, "paper", query_, &gate_, {});
  EXPECT_EQ(gate_.comparisons(), 2u);
  EXPECT_EQ(gate_.mismatches(), 1u);
  EXPECT_EQ(gate_.Finish(), 1);
}

TEST_F(CountGateTest, UnfinishedRunsAreSkippedAndCounted) {
  for (EvalStatus status : {EvalStatus::kOutOfMemory, EvalStatus::kTimeout,
                            EvalStatus::kTimeout, EvalStatus::kUnsupported}) {
    // A wrong count does not matter when the run did not finish.
    EXPECT_TRUE(gate_.Check("q", "x", CountKind::kHomomorphism, status, 7, 4,
                            100));
  }
  EXPECT_EQ(gate_.skipped(EvalStatus::kOutOfMemory), 1u);
  EXPECT_EQ(gate_.skipped(EvalStatus::kTimeout), 2u);
  EXPECT_EQ(gate_.skipped(EvalStatus::kUnsupported), 1u);
  EXPECT_EQ(gate_.comparisons(), 0u);
  EXPECT_EQ(gate_.Summary(),
            "count gate: comparisons=0, both_at_limit=0, skipped_om=1, "
            "skipped_to=2, skipped_na=1, mismatches=0");
  EXPECT_EQ(gate_.Finish(), 0);
}

TEST_F(CountGateTest, BothAtTheLimitPasses) {
  // The paper query has 4 occurrences; a limit of 2 caps both sides.
  const std::vector<NamedEngine> engines = {GmVariant("GM", gm_), Jm(ctx_)};
  auto runs = rigpm::Run(engines, "paper", query_, &gate_, {.limit = 2});
  EXPECT_EQ(runs[0].result.num_occurrences, 2u);
  EXPECT_EQ(gate_.both_at_limit(), 1u);
  EXPECT_EQ(gate_.Finish(), 0);
}

TEST_F(CountGateTest, GmBelowTheLimitWithTheOtherAtItFails) {
  EXPECT_FALSE(gate_.Check("q", "x", CountKind::kHomomorphism,
                           EvalStatus::kOk, /*count=*/10, /*gm_count=*/9,
                           /*limit=*/10));
  EXPECT_EQ(gate_.both_at_limit(), 0u);
  EXPECT_EQ(gate_.Finish(), 1);
}

}  // namespace
}  // namespace rigpm
