// Table 5: GM vs the EmptyHeaded-style engine (EH = WCO joins + expensive
// precomputation; EH-probe = the same without charging the precomputation)
// and the Neo4j-style engine (binary joins, no pre-filtering) on C-queries
// over em and ep. Expected shape: GM fastest across the board; EH pays its
// precomputation; Neo4j falls behind on the cyclic/clique patterns. Exits 1
// when a finished EH or Neo4j count differs from GM's.

#include "bench_common.h"
#include "baseline/catalog.h"

using namespace rigpm;
using namespace rigpm::bench;

int main() {
  PrintBenchHeader("Table 5 — GM vs EH / EH-probe / Neo4j on C-queries",
                   "scale=" + std::to_string(DatasetScaleFromEnv()));
  TablePrinter table(
      {"Dataset", "Query", "EH-probe(s)", "EH(s)", "Neo4j(s)", "GM(s)"});
  CountGate gate;
  for (const std::string& dataset : {"em", "ep"}) {
    Graph g = MakeDatasetByName(dataset);
    GmEngine engine(g);
    MatchContext ctx(g, engine.reach());
    WcojEngine eh(g);
    // EH's per-query precomputation cost model: one catalog pass.
    CatalogResult pre = BuildCatalog(g, 2'000'000);
    // Neo4j stand-in: Selinger-style binary joins without pre-filtering.
    const std::vector<NamedEngine> engines = {
        GmVariant("GM", engine, {.use_prefilter = false}), Wcoj("EH", eh),
        Neo4j(ctx)};

    auto queries = TemplateWorkload(g, RepresentativeTemplateNames(),
                                    QueryVariant::kChildOnly);
    for (const auto& nq : queries) {
      auto runs = Run(engines, nq.name, nq.query, &gate);
      const EngineRun& eh_probe = runs[1];
      std::string eh_total =
          (pre.status == EvalStatus::kOk &&
           eh_probe.result.status == EvalStatus::kOk)
              ? FormatSeconds(pre.build_ms + eh_probe.ms)
              : EvalStatusName(pre.status == EvalStatus::kOk
                                   ? eh_probe.result.status
                                   : pre.status);
      table.AddRow({dataset, "C" + nq.name.substr(1), eh_probe.formatted,
                    eh_total, runs[2].formatted, runs[0].formatted});
    }
  }
  table.Print();
  return gate.Finish();
}
