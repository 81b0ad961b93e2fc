// Ablation benches for design choices beyond the paper's own figures:
//  (a) simulation pass budget N = 1 / 3 (paper) / exact fixpoint,
//  (b) descendant-edge pruning by one sweep over the SCC condensation
//      (SimOptions::batch_reachability) vs per-pair reachability probes.

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

  // --- (a) Simulation pass budget.
  std::printf("\n-- (a) simulation pass budget (RIG size, total time)\n");
  {
    TablePrinter table({"Query", "N=1 RIG", "N=3 RIG", "exact RIG", "N=1(s)",
                        "N=3(s)", "exact(s)"});
    for (const auto& nq : queries) {
      std::vector<std::string> sizes, times;
      for (int passes : {1, 3, 0}) {
        GmOptions opts;
        opts.sim.max_passes = passes;
        opts.limit = MatchLimitFromEnv();
        GmResult r;
        double ms = TimeMs([&] { r = engine.Evaluate(nq.query, opts); });
        sizes.push_back(std::to_string(r.rig_nodes + r.rig_edges));
        times.push_back(FormatSeconds(ms));
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
    TablePrinter table({"Query", "sweep(s)", "per-pair(s)"});
    for (const auto& nq : queries) {
      GmOptions batch;
      batch.limit = 1;
      GmOptions pairwise = batch;
      pairwise.sim.batch_reachability = false;
      GmResult r_b = engine.Evaluate(nq.query, batch);
      GmResult r_p = engine.Evaluate(nq.query, pairwise);
      table.AddRow({nq.name, FormatSeconds(r_b.MatchingMs()),
                    FormatSeconds(r_p.MatchingMs())});
    }
    table.Print();
  }

  return 0;
}
