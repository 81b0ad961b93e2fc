// Fig. 13: size and construction time of the query-dependent summary graphs
// and the total query time, on ep H-queries:
//   GM   — pre-filter + double simulation + RIG,
//   GM-S — double simulation only,
//   GM-F — pre-filter only (no simulation),
//   TM   — the spanning tree's answer graph.
// Expected shape: GM/GM-S build the smallest graphs (sub-1% of the data
// graph), GM-F is ~10x larger, and the small RIG pays off in query time.
// Exits 1 when a GM variant's or TM's finished count differs from GM's.

#include "bench_common.h"

using namespace rigpm;
using namespace rigpm::bench;

int main() {
  PrintBenchHeader(
      "Fig. 13 — summary graph size / build / query time (ep, H-queries)",
      "scale=" + std::to_string(DatasetScaleFromEnv()));
  Graph g = MakeDatasetByName("ep");
  std::printf("graph: %s\n", g.Summary().c_str());
  GmEngine engine(g);
  MatchContext ctx(g, engine.reach());
  // Every engine reports its summary graph as rig_nodes / rig_edges and
  // builds it in the Prefilter, Simulate and BuildRig phases.
  const std::vector<NamedEngine> engines = {
      GmVariant("GM", engine),
      GmVariant("GM-S", engine, {.use_prefilter = false}),
      GmVariant("GM-F", engine, {.use_double_simulation = false}), Tm(ctx)};

  TablePrinter size_tab({"Query", "GM", "GM-S", "GM-F", "TM"});
  TablePrinter build_tab({"Query", "GM(s)", "GM-S(s)", "GM-F(s)", "TM(s)"});
  TablePrinter query_tab({"Query", "GM(s)", "GM-S(s)", "GM-F(s)", "TM(s)"});

  CountGate gate;
  auto queries = TemplateWorkload(g, RepresentativeTemplateNames(),
                                  QueryVariant::kHybrid);
  const double graph_size = static_cast<double>(g.NumNodes() + g.NumEdges());
  for (const auto& nq : queries) {
    std::vector<std::string> sizes = {nq.name}, builds = {nq.name},
                             totals = {nq.name};
    for (const EngineRun& run : Run(engines, nq.name, nq.query, &gate)) {
      const BaselineResult& r = run.result;
      char pct[32];
      std::snprintf(pct, sizeof(pct), "%.3f%%",
                    100.0 *
                        static_cast<double>(r.Counter("rig_nodes") +
                                            r.Counter("rig_edges")) /
                        graph_size);
      sizes.push_back(pct);
      builds.push_back(r.status == EvalStatus::kOk
                           ? FormatSeconds(r.PhaseMs("Prefilter") +
                                           r.PhaseMs("Simulate") +
                                           r.PhaseMs("BuildRig"))
                           : run.formatted);
      totals.push_back(run.formatted);
    }
    size_tab.AddRow(std::move(sizes));
    build_tab.AddRow(std::move(builds));
    query_tab.AddRow(std::move(totals));
  }
  std::printf("\n-- (a) summary graph size as %% of data graph size\n");
  size_tab.Print();
  std::printf("\n-- (b) construction time\n");
  build_tab.Print();
  std::printf("\n-- (c) total query time\n");
  query_tab.Print();
  return gate.Finish();
}
