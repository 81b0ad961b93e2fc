// Fig. 15: effectiveness of query transitive reduction. D-query inputs are
// deliberately bloated with their implied (transitive) reachability edges;
// GM evaluates the reduced form, GM-NR evaluates the bloated form, TM gets
// the reduced form for reference, reduced inside its timed run. Expected
// shape: GM beats GM-NR by a large factor (each redundant descendant edge
// costs edge-to-path matching). Exits 1 when GM-NR's or TM's finished count
// differs from GM's.

#include "baseline/tm_engine.h"
#include "bench_common.h"
#include "query/transitive_reduction.h"

using namespace rigpm;
using namespace rigpm::bench;

int main() {
  PrintBenchHeader(
      "Fig. 15 — D-query time with / without transitive reduction",
      "scale=" + std::to_string(DatasetScaleFromEnv()));
  CountGate gate;
  for (const std::string& dataset : {"em", "ep"}) {
    Graph g = MakeDatasetByName(dataset);
    std::printf("\n-- %s: %s\n", dataset.c_str(), g.Summary().c_str());
    GmEngine engine(g);
    MatchContext ctx(g, engine.reach());
    // GM reduces the bloated input itself (the default); GM-NR does not.
    auto tm = [&ctx](const PatternQuery& q, const BaselineOptions& opts,
                     const OccurrenceSink& sink) {
      return TmEvaluate(ctx, QueryTransitiveReduction(q), opts, sink);
    };
    const std::vector<NamedEngine> engines = {
        GmVariant("GM", engine),
        GmVariant("GM-NR", engine, {.use_transitive_reduction = false}),
        {"TM", tm}};

    TablePrinter table({"Query", "#edges bloated", "#edges reduced", "GM(s)",
                        "GM-NR(s)", "TM(s)"});
    for (const std::string& name : {"DQ12", "DQ14", "DQ15", "DQ16", "DQ18"}) {
      // D-variant of the corresponding H-template, bloated to its closure.
      std::string tpl = "HQ" + name.substr(2);
      auto queries =
          TemplateWorkload(g, {tpl}, QueryVariant::kDescendantOnly, 19);
      PatternQuery bloated = QueryTransitiveClosure(queries.front().query);
      PatternQuery reduced = QueryTransitiveReduction(bloated);
      auto runs = Run(engines, name, bloated, &gate);
      table.AddRow({name, std::to_string(bloated.NumEdges()),
                    std::to_string(reduced.NumEdges()), runs[0].formatted,
                    runs[1].formatted, runs[2].formatted});
    }
    table.Print();
  }
  return gate.Finish();
}
