#include "engine/gm_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "graph/generators.h"
#include "query/query_generator.h"
#include "query/query_templates.h"
#include "test_util.h"

namespace rigpm {
namespace {

using ::rigpm::testing::BruteForceAnswer;
using ::rigpm::testing::PaperExample;

TEST(GmEngine, PaperExampleEndToEnd) {
  Graph g = PaperExample::MakeGraph();
  GmEngine engine(g);
  GmResult result;
  auto tuples = engine.EvaluateCollect(PaperExample::MakeQuery(), GmOptions{},
                                       &result);
  std::set<std::vector<NodeId>> got(tuples.begin(), tuples.end());
  EXPECT_EQ(got, PaperExample::ExpectedAnswer());
  EXPECT_EQ(result.num_occurrences, 4u);
  EXPECT_FALSE(result.hit_limit);
  EXPECT_EQ(result.rig_nodes, 7u);
  EXPECT_GE(result.TotalMs(), 0.0);
  EXPECT_GE(result.MatchingMs(), 0.0);
  EXPECT_EQ(result.order_used.size(), 3u);
}

TEST(GmEngine, LimitReported) {
  // The paper example has 4 occurrences; a limit never lets more through,
  // and 0 lets none through without ever calling the sink.
  Graph g = PaperExample::MakeGraph();
  GmEngine engine(g);
  for (uint64_t limit : {0u, 1u, 3u, 4u, 5u}) {
    GmOptions opts;
    opts.limit = limit;
    uint64_t sunk = 0;
    GmResult result = engine.Evaluate(PaperExample::MakeQuery(), opts,
                                      [&sunk](const Occurrence&) {
                                        ++sunk;
                                        return true;
                                      });
    EXPECT_EQ(result.num_occurrences, std::min<uint64_t>(limit, 4))
        << "limit " << limit;
    EXPECT_EQ(sunk, result.num_occurrences) << "limit " << limit;
    EXPECT_EQ(result.hit_limit, limit <= 4) << "limit " << limit;

    std::vector<PatternQuery> batch(2, PaperExample::MakeQuery());
    for (const GmResult& r : engine.EvaluateBatch(batch, opts)) {
      EXPECT_EQ(r.num_occurrences, result.num_occurrences)
          << "batch, limit " << limit;
    }
  }
}

TEST(GmEngine, EmptyRigShortcut) {
  // Query label that does not exist in the graph.
  Graph g = PaperExample::MakeGraph();
  GmEngine engine(g);
  PatternQuery q = PatternQuery::FromParts(
      {0, 9}, {{0, 1, EdgeKind::kChild}});
  GmResult result = engine.Evaluate(q);
  EXPECT_EQ(result.num_occurrences, 0u);
  EXPECT_TRUE(result.empty_rig_shortcut);
  EXPECT_EQ(result.mjoin_stats.intersections, 0u);
}

TEST(GmEngine, TransitiveReductionShrinksQuery) {
  Graph g = PaperExample::MakeGraph();
  GmEngine engine(g);
  // (A,C) descendant edge is implied by A->B->C? No — B->C is a descendant
  // edge, so the path A -> B ≺ C implies A ≺ C. Add the redundant edge.
  PatternQuery q = PatternQuery::FromParts(
      {PaperExample::kLabelA, PaperExample::kLabelB, PaperExample::kLabelC},
      {{0, 1, EdgeKind::kChild},
       {1, 2, EdgeKind::kDescendant},
       {0, 2, EdgeKind::kDescendant}});
  GmResult with;
  GmOptions opts;
  engine.EvaluateCollect(q, opts, &with);
  EXPECT_EQ(with.reduced_query_edges, 2u);

  GmOptions no_red = opts;
  no_red.use_transitive_reduction = false;
  GmResult without;
  auto t1 = engine.EvaluateCollect(q, no_red, &without);
  EXPECT_EQ(without.reduced_query_edges, 3u);
  // Same answer either way (equivalence of Section 3).
  auto t0 = engine.EvaluateCollect(q, opts, &with);
  EXPECT_EQ(std::set<std::vector<NodeId>>(t0.begin(), t0.end()),
            std::set<std::vector<NodeId>>(t1.begin(), t1.end()));
}

// All four named variants must return the same answer; they differ only in
// how much they prune before enumeration (Fig. 13).
TEST(GmEngine, VariantsAgreeOnAnswers) {
  Graph g = GeneratePowerLaw({.num_nodes = 120, .num_edges = 600,
                              .num_labels = 5, .seed = 3});
  GmEngine engine(g);
  PatternQuery q = GenerateRandomQuery({.num_nodes = 5, .num_edges = 7,
                                        .num_labels = 5,
                                        .variant = QueryVariant::kHybrid,
                                        .seed = 17});
  auto run = [&](bool prefilter, bool sim, bool reduction) {
    GmOptions opts;
    opts.use_prefilter = prefilter;
    opts.use_double_simulation = sim;
    opts.use_transitive_reduction = reduction;
    auto tuples = engine.EvaluateCollect(q, opts);
    return std::set<std::vector<NodeId>>(tuples.begin(), tuples.end());
  };
  auto gm = run(true, true, true);
  EXPECT_EQ(run(false, true, true), gm);   // GM-S
  EXPECT_EQ(run(true, false, true), gm);   // GM-F
  EXPECT_EQ(run(true, true, false), gm);   // GM-NR
  EXPECT_EQ(run(false, false, false), gm); // everything off
  EXPECT_EQ(gm, BruteForceAnswer(g, q));
}

TEST(GmEngine, VariantRigSizesOrdered) {
  Graph g = GeneratePowerLaw({.num_nodes = 150, .num_edges = 700,
                              .num_labels = 4, .seed = 5});
  GmEngine engine(g);
  PatternQuery q = GenerateRandomQuery({.num_nodes = 4, .num_edges = 5,
                                        .num_labels = 4,
                                        .variant = QueryVariant::kHybrid,
                                        .seed = 21});
  GmOptions gm_opts;          // GM: prefilter + simulation
  GmOptions gmf_opts;         // GM-F: no simulation
  gmf_opts.use_double_simulation = false;
  GmResult gm, gmf;
  engine.Evaluate(q, gm_opts, nullptr);
  GmResult r_gm, r_gmf;
  engine.EvaluateCollect(q, gm_opts, &r_gm);
  engine.EvaluateCollect(q, gmf_opts, &r_gmf);
  // Double simulation can only shrink the RIG.
  EXPECT_LE(r_gm.rig_nodes, r_gmf.rig_nodes);
  EXPECT_LE(r_gm.rig_edges, r_gmf.rig_edges);
}

TEST(GmEngine, SimAlgorithmsInterchangeable) {
  Graph g = GeneratePowerLaw({.num_nodes = 100, .num_edges = 500,
                              .num_labels = 4, .seed = 9});
  GmEngine engine(g);
  PatternQuery q = GenerateRandomQuery({.num_nodes = 5, .num_edges = 6,
                                        .num_labels = 4,
                                        .variant = QueryVariant::kHybrid,
                                        .seed = 8});
  std::set<std::vector<NodeId>> expected;
  bool first = true;
  for (SimAlgorithm alg :
       {SimAlgorithm::kBas, SimAlgorithm::kDag, SimAlgorithm::kDagMap}) {
    GmOptions opts;
    opts.sim_algorithm = alg;
    auto tuples = engine.EvaluateCollect(q, opts);
    std::set<std::vector<NodeId>> got(tuples.begin(), tuples.end());
    if (first) {
      expected = got;
      first = false;
    } else {
      EXPECT_EQ(got, expected) << SimAlgorithmName(alg);
    }
  }
}

TEST(GmEngine, ExactSimulationPrunesAtLeastAsMuchAsCapped) {
  Graph g = GeneratePowerLaw({.num_nodes = 200, .num_edges = 1000,
                              .num_labels = 4, .seed = 12});
  GmEngine engine(g);
  PatternQuery q = GenerateRandomQuery({.num_nodes = 6, .num_edges = 8,
                                        .num_labels = 4,
                                        .variant = QueryVariant::kHybrid,
                                        .seed = 30});
  GmOptions capped;  // default: 3 passes
  GmOptions exact;
  exact.sim.max_passes = 0;
  GmResult r_capped, r_exact;
  engine.EvaluateCollect(q, capped, &r_capped);
  engine.EvaluateCollect(q, exact, &r_exact);
  EXPECT_LE(r_exact.rig_nodes, r_capped.rig_nodes);
  EXPECT_EQ(r_exact.num_occurrences, r_capped.num_occurrences);
}

// Worst-case-optimality smoke check (Theorem 5.2): for a clique query, the
// number of candidates MJoin scans never exceeds n * m * AGM bound; here we
// just assert the enumeration does not blow up past the answer by more than
// the RIG-edge product bound on a small instance.
TEST(GmEngine, EnumerationWorkBoundedByRigProduct) {
  Graph g = GeneratePowerLaw({.num_nodes = 80, .num_edges = 400,
                              .num_labels = 3, .seed = 14});
  GmEngine engine(g);
  PatternQuery q = PatternQuery::FromParts(
      {0, 1, 2},
      {{0, 1, EdgeKind::kChild},
       {0, 2, EdgeKind::kChild},
       {1, 2, EdgeKind::kChild}});
  GmResult r;
  engine.EvaluateCollect(q, GmOptions{}, &r);
  // Fractional cover of the triangle: x = 1/2 per edge; AGM bound =
  // sqrt(|R1| |R2| |R3|).
  double agm = std::sqrt(static_cast<double>(
      std::max<uint64_t>(1, r.rig_edges) *
      std::max<uint64_t>(1, r.rig_edges) *
      std::max<uint64_t>(1, r.rig_edges)));
  EXPECT_LE(static_cast<double>(r.num_occurrences), agm + 1.0);
}

}  // namespace
}  // namespace rigpm
