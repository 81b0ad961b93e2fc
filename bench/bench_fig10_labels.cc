// Fig. 10: elapsed time of H-queries (HQ2, HQ4, HQ7, HQ18) on versions of
// the em graph with 5 / 10 / 15 / 20 labels (size fixed). Expected shape:
// all algorithms slow down as labels decrease (bigger inverted lists), with
// the steepest growth near 5; GM stays fastest throughout, TM times out on
// the heavy patterns, JM runs out of memory on HQ18. Exits 1 when a
// finished TM or JM count differs from GM's.

#include "bench_common.h"

using namespace rigpm;
using namespace rigpm::bench;

int main() {
  PrintBenchHeader("Fig. 10 — H-query time vs number of data labels (em)",
                   "scale=" + std::to_string(DatasetScaleFromEnv()));
  const DatasetSpec& em = DatasetByName("em");
  const double scale = DatasetScaleFromEnv();
  CountGate gate;

  for (const std::string& qname : {"HQ2", "HQ4", "HQ7", "HQ18"}) {
    std::printf("\n-- %s\n", qname.c_str());
    TablePrinter table({"#labels", "GM(s)", "TM(s)", "JM(s)"});
    for (uint32_t labels : {5u, 10u, 15u, 20u}) {
      Graph g = MakeDatasetWithLabels(em, scale, labels);
      GmEngine engine(g);
      MatchContext ctx(g, engine.reach());
      auto queries =
          TemplateWorkload(g, {qname}, QueryVariant::kHybrid, /*seed=*/11);
      const std::vector<NamedEngine> engines = {GmVariant("GM", engine),
                                                Tm(ctx), Jm(ctx)};
      auto runs = Run(engines, qname, queries.front().query, &gate);
      table.AddRow({std::to_string(labels), runs[0].formatted,
                    runs[1].formatted, runs[2].formatted});
    }
    table.Print();
  }
  return gate.Finish();
}
