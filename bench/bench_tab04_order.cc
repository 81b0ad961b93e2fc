// Table 4: effectiveness of the search ordering strategies on em and ep —
// GM with RI (topology only), JO (RIG cardinalities, the default) and BJ
// (exact DP left-deep plan). Expected shape: JO best overall, BJ close
// behind, RI noticeably worse on most H-queries. Exits 1 when GM-RI's or
// GM-BJ's count differs from GM-JO's.

#include "bench_common.h"

using namespace rigpm;
using namespace rigpm::bench;

int main() {
  PrintBenchHeader("Table 4 — search order strategies: GM-RI / GM-JO / GM-BJ",
                   "scale=" + std::to_string(DatasetScaleFromEnv()));
  TablePrinter table({"Dataset", "Query", "GM-RI(s)", "GM-JO(s)", "GM-BJ(s)"});
  CountGate gate;
  for (const std::string& dataset : {"em", "ep"}) {
    Graph g = MakeDatasetByName(dataset);
    GmEngine engine(g);
    const std::vector<NamedEngine> engines = {
        GmVariant("GM-JO", engine),
        GmVariant("GM-RI", engine, {.order = OrderStrategy::kRI}),
        GmVariant("GM-BJ", engine, {.order = OrderStrategy::kBJ})};
    auto queries = TemplateWorkload(
        g, {"HQ2", "HQ3", "HQ4", "HQ15", "HQ18"}, QueryVariant::kHybrid);
    for (const auto& nq : queries) {
      auto runs = Run(engines, nq.name, nq.query, &gate);
      table.AddRow({dataset, nq.name, runs[1].formatted, runs[0].formatted,
                    runs[2].formatted});
    }
  }
  table.Print();
  return gate.Finish();
}
