// Ablation benches for design choices beyond the paper's own figures:
//  (a) simulation pass budget N = 1 / 3 (paper) / exact fixpoint,
//  (b) descendant-edge pruning by one sweep over the SCC condensation
//      (SimOptions::batch_reachability) vs per-pair reachability probes.
// Exits 1 when two configurations count a query differently.

#include "bench_common.h"

using namespace rigpm;
using namespace rigpm::bench;

int main() {
  PrintBenchHeader("Ablations — pass budget / batch reachability",
                   "scale=" + std::to_string(DatasetScaleFromEnv()));
  Graph g = MakeDatasetByName("ep");
  std::printf("graph: %s\n", g.Summary().c_str());
  GmEngine engine(g);
  auto queries = TemplateWorkload(g, {"HQ3", "HQ8", "HQ12", "HQ16"},
                                  QueryVariant::kHybrid);

  CountGate gate;

  // --- (a) Simulation pass budget.
  std::printf("\n-- (a) simulation pass budget (RIG size, total time)\n");
  {
    std::vector<NamedEngine> engines;
    for (int passes : {1, 3, 0}) {
      GmOptions opts;
      opts.sim.max_passes = passes;
      engines.push_back(GmVariant("N=" + std::to_string(passes), engine, opts));
    }
    TablePrinter table({"Query", "N=1 RIG", "N=3 RIG", "exact RIG", "N=1(s)",
                        "N=3(s)", "exact(s)"});
    for (const auto& nq : queries) {
      std::vector<std::string> sizes, times;
      for (const EngineRun& run : Run(engines, nq.name, nq.query, &gate)) {
        sizes.push_back(std::to_string(run.result.Counter("rig_nodes") +
                                       run.result.Counter("rig_edges")));
        times.push_back(run.formatted);
      }
      table.AddRow({nq.name, sizes[0], sizes[1], sizes[2], times[0], times[1],
                    times[2]});
    }
    table.Print();
  }

  // --- (b) Condensation-sweep reachability pruning vs per-pair probes.
  std::printf(
      "\n-- (b) descendant-edge pruning: condensation sweep vs per-pair "
      "(matching time)\n");
  {
    GmOptions pairwise;
    pairwise.sim.batch_reachability = false;
    const std::vector<NamedEngine> engines = {
        GmVariant("sweep", engine), GmVariant("per-pair", engine, pairwise)};
    TablePrinter table({"Query", "sweep(s)", "per-pair(s)"});
    for (const auto& nq : queries) {
      // One occurrence: the time is the matching phases'.
      auto runs = Run(engines, nq.name, nq.query, &gate, {.limit = 1});
      auto matching_ms = [](const EngineRun& run) {
        return run.result.TotalMs() - run.result.PhaseMs("Enumerate");
      };
      table.AddRow({nq.name, FormatSeconds(matching_ms(runs[0])),
                    FormatSeconds(matching_ms(runs[1]))});
    }
    table.Print();
  }

  return gate.Finish();
}
