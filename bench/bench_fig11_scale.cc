// Fig. 11: elapsed time of H-queries HQ8 and HQ12 on increasingly larger
// subsets of the DBLP graph (50k..300k nodes at paper scale). Expected
// shape: all engines grow with graph size; GM scales smoothly while TM and
// JM blow up (timeouts / out-of-memory) well before the largest subset.
// Exits 1 when a finished TM or JM count differs from GM's.

#include "bench_common.h"

using namespace rigpm;
using namespace rigpm::bench;

int main() {
  PrintBenchHeader("Fig. 11 — H-query time vs data size (DBLP subsets)",
                   "scale=" + std::to_string(DatasetScaleFromEnv()));
  const DatasetSpec& db = DatasetByName("db");
  const double scale = DatasetScaleFromEnv();
  CountGate gate;

  for (const std::string& qname : {"HQ8", "HQ12"}) {
    std::printf("\n-- %s\n", qname.c_str());
    TablePrinter table({"#nodes", "GM(s)", "TM(s)", "JM(s)"});
    for (uint32_t base_nodes : {50'000u, 100'000u, 150'000u, 200'000u,
                                250'000u, 300'000u}) {
      uint32_t nodes = static_cast<uint32_t>(base_nodes * scale);
      Graph g = MakeDatasetWithNodes(db, nodes);
      GmEngine engine(g);
      MatchContext ctx(g, engine.reach());
      auto queries =
          TemplateWorkload(g, {qname}, QueryVariant::kHybrid, /*seed=*/17);
      const std::vector<NamedEngine> engines = {GmVariant("GM", engine),
                                                Tm(ctx), Jm(ctx)};
      auto runs = Run(engines, qname, queries.front().query, &gate);
      table.AddRow({std::to_string(nodes), runs[0].formatted,
                    runs[1].formatted, runs[2].formatted});
    }
    table.Print();
  }
  return gate.Finish();
}
