// Table 6: H-queries on an em fragment — GM vs the Neo4j-style engine
// (binary joins + index-free reachability, the only system configuration
// that can evaluate hybrid queries at all). Expected shape: GM faster on
// every query, often by 3-4 orders of magnitude, with Neo4j timing out on
// the heavy patterns. Exits 1 when a finished Neo4j count differs from
// GM's.

#include "bench_common.h"

using namespace rigpm;
using namespace rigpm::bench;

int main() {
  PrintBenchHeader("Table 6 — H-queries: GM vs Neo4j-style binary joins (em)",
                   "scale=" + std::to_string(DatasetScaleFromEnv()));
  const DatasetSpec& em = DatasetByName("em");
  // The paper uses a 30K-node fragment; apply the env scale.
  uint32_t nodes = std::max<uint32_t>(
      1000, static_cast<uint32_t>(30'000 * DatasetScaleFromEnv() * 10));
  Graph g = MakeDatasetWithNodes(em, nodes);
  std::printf("fragment: %s\n", g.Summary().c_str());
  GmEngine engine(g);
  auto bfs = BuildReachabilityIndex(g, ReachKind::kBfs);
  MatchContext neo_ctx(g, *bfs);

  TablePrinter table({"Class", "Query", "Neo4j(s)", "GM(s)"});
  const std::vector<NamedEngine> engines = {GmVariant("GM", engine),
                                            Neo4j(neo_ctx)};
  CountGate gate;
  auto queries = TemplateWorkload(g, RepresentativeTemplateNames(),
                                  QueryVariant::kHybrid);
  for (const auto& nq : queries) {
    auto runs = Run(engines, nq.name, nq.query, &gate);
    table.AddRow({PatternClassName(TemplateByName(nq.name).cls), nq.name,
                  runs[1].formatted, runs[0].formatted});
  }
  table.Print();
  return gate.Finish();
}
