// End-to-end integration tests: dataset generators + workloads + all engines
// on realistic (small-scale) inputs, exactly the path the bench binaries use.

#include <gtest/gtest.h>

#include "baseline/jm_engine.h"
#include "baseline/tm_engine.h"
#include "bench_util/datasets.h"
#include "bench_util/harness.h"
#include "bench_util/table_printer.h"
#include "bench_util/workloads.h"
#include "engine/gm_engine.h"

namespace rigpm {
namespace {

TEST(Datasets, RegistryCoversTable2) {
  const auto& registry = DatasetRegistry();
  ASSERT_EQ(registry.size(), 9u);
  EXPECT_EQ(DatasetByName("yt").num_labels, 71u);
  EXPECT_EQ(DatasetByName("hp").num_labels, 307u);
  EXPECT_EQ(DatasetByName("am").num_labels, 3u);
  EXPECT_EQ(DatasetByName("bs").base_nodes, 685'000u);
}

TEST(Datasets, GenerationRespectsScale) {
  const DatasetSpec& yt = DatasetByName("yt");
  Graph g = MakeDataset(yt, /*scale=*/0.5, /*seed=*/1);
  EXPECT_NEAR(static_cast<double>(g.NumNodes()), yt.base_nodes * 0.5, 10.0);
  EXPECT_EQ(g.NumLabels(), yt.num_labels);
  // Deterministic.
  Graph g2 = MakeDataset(yt, 0.5, 1);
  EXPECT_EQ(g2.NumEdges(), g.NumEdges());
}

TEST(Datasets, LabelAndNodeVariants) {
  const DatasetSpec& em = DatasetByName("em");
  Graph five = MakeDatasetWithLabels(em, 0.01, 5);
  EXPECT_EQ(five.NumLabels(), 5u);
  Graph sized = MakeDatasetWithNodes(em, 3000);
  EXPECT_EQ(sized.NumNodes(), 3000u);
}

TEST(Workloads, TemplateWorkloadInstantiates) {
  Graph g = MakeDataset(DatasetByName("yt"), 0.2, 1);
  auto queries = TemplateWorkload(g, RepresentativeTemplateNames(),
                                  QueryVariant::kHybrid);
  ASSERT_EQ(queries.size(), 12u);
  for (const auto& nq : queries) {
    EXPECT_TRUE(nq.query.IsConnected()) << nq.name;
    for (QueryNodeId v = 0; v < nq.query.NumNodes(); ++v) {
      EXPECT_LT(nq.query.Label(v), g.NumLabels());
    }
  }
}

TEST(Workloads, ExtractedWorkloadSizes) {
  Graph g = MakeDataset(DatasetByName("hu"), 0.1, 2);
  auto queries =
      ExtractedWorkload(g, {4, 6, 8}, QueryVariant::kChildOnly, 2, 3);
  EXPECT_GE(queries.size(), 3u);  // extraction can occasionally fail
  for (const auto& nq : queries) {
    EXPECT_GE(nq.query.NumNodes(), 4u);
    EXPECT_TRUE(nq.query.IsConnected()) << nq.name;
  }
}

TEST(Harness, EnvDefaults) {
  EXPECT_GT(MatchLimitFromEnv(), 0u);
  EXPECT_GT(TimeoutMsFromEnv(), 0.0);
  EXPECT_FALSE(FormatSeconds(1234.5).empty());
  // Three significant digits under 10 ms, fixed decimals above.
  EXPECT_EQ(FormatSeconds(0.123), "0.000123");
  EXPECT_EQ(FormatSeconds(4.56), "0.00456");
  EXPECT_EQ(FormatSeconds(0.0123), "0.0000123");
  EXPECT_EQ(FormatSeconds(0.0), "0.0000");
  EXPECT_EQ(FormatSeconds(250.0), "0.250");
  double ms = TimeMs([] {});
  EXPECT_GE(ms, 0.0);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"Query", "GM", "JM"});
  t.AddRow({"HQ0", "0.1", "12.0"});
  t.AddRow({"HQ17", "0.02"});  // short row padded
  std::ostringstream os;
  t.Print(os);
  std::string text = os.str();
  EXPECT_NE(text.find("Query"), std::string::npos);
  EXPECT_NE(text.find("HQ17"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
}

// The main integration check: on a miniature "yeast", all three approaches
// agree on counts for hybrid template workloads, with GM never slower
// by an unreasonable factor on the matching phase (sanity, not performance).
TEST(Integration, EnginesAgreeOnDatasetWorkload) {
  Graph g = MakeDataset(DatasetByName("yt"), 0.05, 4);
  GmEngine engine(g);
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);

  const uint64_t kLimit = 20'000;
  for (QueryVariant variant :
       {QueryVariant::kChildOnly, QueryVariant::kHybrid,
        QueryVariant::kDescendantOnly}) {
    auto queries =
        TemplateWorkload(g, {"HQ0", "HQ6", "HQ8"}, variant, /*seed=*/9);
    for (const auto& nq : queries) {
      GmOptions gopts;
      gopts.limit = kLimit;
      GmResult gm = engine.Evaluate(nq.query, gopts);

      JmOptions jopts;
      jopts.limit = kLimit;
      JmResult jm = JmEvaluate(ctx, nq.query, jopts);

      TmOptions topts;
      topts.limit = kLimit;
      TmResult tm = TmEvaluate(ctx, nq.query, topts);

      if (!gm.hit_limit && jm.status == EvalStatus::kOk &&
          tm.status == EvalStatus::kOk) {
        EXPECT_EQ(gm.num_occurrences, jm.num_occurrences)
            << nq.name << " variant " << QueryVariantName(variant);
        EXPECT_EQ(gm.num_occurrences, tm.num_occurrences)
            << nq.name << " variant " << QueryVariantName(variant);
      }
    }
  }
}

TEST(Integration, EmptyAnswerAcrossEngines) {
  // A graph where label 1 never sits below label 0.
  Graph g = Graph::FromEdges({1, 0, 1, 0}, {{2, 1}, {0, 3}});
  GmEngine engine(g);
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);
  PatternQuery q = PatternQuery::FromParts(
      {0, 1}, {{0, 1, EdgeKind::kDescendant}});
  // 0 -> 3 is label0 -> label0; 2 -> 1 is label1 -> label0: so label0 never
  // reaches a label-1 node.
  EXPECT_EQ(engine.Evaluate(q).num_occurrences, 0u);
  EXPECT_EQ(JmEvaluate(ctx, q).num_occurrences, 0u);
  EXPECT_EQ(TmEvaluate(ctx, q).num_occurrences, 0u);
}

}  // namespace
}  // namespace rigpm
