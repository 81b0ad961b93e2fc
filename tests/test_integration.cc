// End-to-end integration tests: dataset generators + workloads + all engines
// on realistic (small-scale) inputs, exactly the path the bench binaries use.

#include <gtest/gtest.h>

#include "baseline/jm_engine.h"
#include "baseline/tm_engine.h"
#include "baseline/wcoj_engine.h"
#include "bench_util/count_gate.h"
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

// The main integration check: on a miniature "yeast", every engine the
// benches compare agrees with GM through the benches' own count gate on
// template workloads of each variant: JM, TM and WCOJ (with its closure)
// exactly, up to the limit, and ISO's injective count never above GM's.
TEST(Integration, EnginesAgreeOnDatasetWorkload) {
  Graph g = MakeDataset(DatasetByName("yt"), 0.05, 4);
  GmEngine engine(g);
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);
  WcojEngine wcoj(g);
  ASSERT_EQ(wcoj.MaterializeClosure(1 << 28, nullptr), EvalStatus::kOk);
  const std::vector<NamedEngine> engines = {
      GmVariant("GM", engine), Jm(ctx), Tm(ctx), Wcoj("WCOJ", wcoj), Iso(g)};

  CountGate gate;
  for (QueryVariant variant :
       {QueryVariant::kChildOnly, QueryVariant::kHybrid,
        QueryVariant::kDescendantOnly}) {
    auto queries =
        TemplateWorkload(g, {"HQ0", "HQ6", "HQ8"}, variant, /*seed=*/9);
    for (const auto& nq : queries) {
      // A bare Run here would name ::testing::Test::Run.
      rigpm::Run(engines, nq.name, nq.query, &gate, {.limit = 20'000});
    }
  }
  EXPECT_EQ(gate.mismatches(), 0u) << gate.Summary();
  // Four comparisons per query, but ISO skips the six queries with
  // descendant edges.
  EXPECT_EQ(gate.skipped(EvalStatus::kUnsupported), 6u) << gate.Summary();
  EXPECT_EQ(gate.comparisons(), 30u) << gate.Summary();
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
