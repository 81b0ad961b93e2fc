// Unit tests for the staged query pipeline: phase chain structure, per-phase
// timing reporting, the empty-RIG shortcut, and EvalContext reuse across
// queries.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "engine/eval_context.h"
#include "engine/gm_engine.h"
#include "engine/pipeline.h"
#include "graph/generators.h"
#include "query/query_generator.h"
#include "test_util.h"

namespace rigpm {
namespace {

using ::rigpm::testing::PaperExample;

std::vector<std::string> PhaseNames(const QueryPipeline& p) {
  std::vector<std::string> names;
  for (const auto& phase : p.phases()) names.push_back(phase->name());
  return names;
}

TEST(QueryPipeline, StandardChainHasThePaperPhases) {
  EXPECT_EQ(PhaseNames(QueryPipeline::StandardChain()),
            (std::vector<std::string>{"Reduce", "Prefilter", "Simulate",
                                      "BuildRig", "Order", "Enumerate"}));
  EXPECT_EQ(PhaseNames(QueryPipeline::MatchingChain()),
            (std::vector<std::string>{"Reduce", "Prefilter", "Simulate",
                                      "BuildRig"}));
}

TEST(QueryPipeline, PhaseTimingsReportedPerExecutedPhase) {
  Graph g = PaperExample::MakeGraph();
  GmEngine engine(g);
  GmResult r = engine.Evaluate(PaperExample::MakeQuery());
  ASSERT_EQ(r.phase_timings.size(), 6u);
  EXPECT_STREQ(r.phase_timings.front().name, "Reduce");
  EXPECT_STREQ(r.phase_timings.back().name, "Enumerate");
  for (const PhaseTiming& pt : r.phase_timings) EXPECT_GE(pt.ms, 0.0);
  EXPECT_EQ(r.num_occurrences, 4u);
}

TEST(QueryPipeline, EmptyRigShortcutStopsTheChain) {
  // No node carries label 9, so the candidate sets are empty and the chain
  // must stop at BuildRig without ordering or enumeration.
  Graph g = PaperExample::MakeGraph();
  GmEngine engine(g);
  PatternQuery q = PatternQuery::FromParts(
      {PaperExample::kLabelA, 9}, {{0, 1, EdgeKind::kChild}});
  GmResult r = engine.Evaluate(q);
  EXPECT_TRUE(r.empty_rig_shortcut);
  EXPECT_EQ(r.num_occurrences, 0u);
  ASSERT_EQ(r.phase_timings.size(), 4u);
  EXPECT_STREQ(r.phase_timings.back().name, "BuildRig");
  EXPECT_TRUE(r.order_used.empty());
}

TEST(EvalContext, ReusedAcrossQueriesGivesIdenticalAnswers) {
  Graph g = GeneratePowerLaw({.num_nodes = 60, .num_edges = 200,
                              .num_labels = 3, .seed = 9});
  GmEngine engine(g);
  std::vector<PatternQuery> queries;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    queries.push_back(GenerateRandomQuery({.num_nodes = 4, .num_edges = 4,
                                           .num_labels = 3,
                                           .variant = QueryVariant::kHybrid,
                                           .seed = seed}));
  }

  EvalContext ctx = engine.MakeContext();
  uint64_t total = 0;
  for (const PatternQuery& q : queries) {
    // Fresh-context result == recycled-context result, query by query.
    uint64_t fresh = engine.Evaluate(q).num_occurrences;
    uint64_t reused = engine.Evaluate(ctx, q).num_occurrences;
    EXPECT_EQ(reused, fresh);
    total += reused;
  }
  EXPECT_EQ(ctx.queries_evaluated(), queries.size());
  EXPECT_EQ(ctx.occurrences_emitted(), total);
  EXPECT_FALSE(ctx.Summary().empty());
}

TEST(EvalContext, BuildRigOnlyMatchesPipelineRigStats) {
  Graph g = PaperExample::MakeGraph();
  GmEngine engine(g);
  GmResult rig_only;
  Rig rig = engine.BuildRigOnly(PaperExample::MakeQuery(), GmOptions{},
                                &rig_only);
  GmResult full = engine.Evaluate(PaperExample::MakeQuery());
  EXPECT_EQ(rig.TotalNodes(), full.rig_nodes);
  EXPECT_EQ(rig.TotalEdges(), full.rig_edges);
  EXPECT_EQ(rig_only.rig_nodes, full.rig_nodes);
  EXPECT_EQ(rig_only.rig_edges, full.rig_edges);
}

}  // namespace
}  // namespace rigpm
