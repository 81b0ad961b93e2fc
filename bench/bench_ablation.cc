// Ablation benches for design choices beyond the paper's own figures:
//  (a) early expansion termination on/off (the §4.5 interval-label cutoff),
//  (b) simulation pass budget N = 1 / 3 (paper) / exact fixpoint,
//  (c) descendant-edge pruning by one sweep over the SCC condensation
//      (SimOptions::batch_reachability) vs per-pair reachability probes.

#include "bench_common.h"

using namespace rigpm;
using namespace rigpm::bench;

int main() {
  PrintBenchHeader("Ablations — early termination / pass budget / batch "
                   "reachability",
                   "scale=" + std::to_string(DatasetScaleFromEnv()));
  Graph g = MakeDatasetByName("ep");
  std::printf("graph: %s\n", g.Summary().c_str());
  GmEngine engine(g);
  auto queries = TemplateWorkload(g, {"HQ3", "HQ8", "HQ12", "HQ16"},
                                  QueryVariant::kHybrid);

  // --- (a) Early expansion termination.
  std::printf("\n-- (a) early expansion termination (matching time)\n");
  {
    TablePrinter table({"Query", "on(s)", "off(s)"});
    for (const auto& nq : queries) {
      GmOptions on;
      on.limit = 1;
      GmOptions off = on;
      off.early_termination = false;
      GmResult r_on, r_off;
      engine.Evaluate(nq.query, on, nullptr);
      r_on = engine.Evaluate(nq.query, on);
      r_off = engine.Evaluate(nq.query, off);
      table.AddRow({nq.name, FormatSeconds(r_on.MatchingMs()),
                    FormatSeconds(r_off.MatchingMs())});
    }
    table.Print();
  }

  // --- (b) Simulation pass budget.
  std::printf("\n-- (b) simulation pass budget (RIG size, total time)\n");
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

  // --- (c) Condensation-sweep reachability pruning vs per-pair probes.
  std::printf(
      "\n-- (c) descendant-edge pruning: condensation sweep vs per-pair "
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
