// Table 3: large D-queries (descendant-only) on hu, hp and yt. For each
// algorithm: how many queries time out, run out of memory, are solved, and
// the average time of the solved ones. Expected shape: GM solves all ten;
// JM solves only the small ones (OM dominates); TM solves more than JM but
// is much slower. Exits 1 when a finished JM or TM count differs from GM's.

#include "bench_common.h"

using namespace rigpm;
using namespace rigpm::bench;

int main() {
  PrintBenchHeader("Table 3 — large D-queries: solved counts and times",
                   "scale=" + std::to_string(DatasetScaleFromEnv()));

  TablePrinter table({"Dataset", "Alg.", "Timeout", "OutOfMem", "Solved",
                      "Avg time solved (s)"});
  CountGate gate;
  for (const std::string& dataset : {"hu", "hp", "yt"}) {
    Graph g = MakeDatasetByName(dataset);
    GmEngine engine(g);
    MatchContext ctx(g, engine.reach());
    auto queries = ExtractedWorkload(g, {4, 6, 8, 10, 12, 14, 16, 20, 24, 28},
                                     QueryVariant::kDescendantOnly);
    const std::vector<NamedEngine> engines = {GmVariant("GM", engine),
                                              Jm(ctx), Tm(ctx)};

    struct Tally {
      int to = 0, om = 0, solved = 0;
      double total_ms = 0;
    };
    std::vector<Tally> tallies(engines.size());
    for (const auto& nq : queries) {
      auto runs = Run(engines, nq.name, nq.query, &gate);
      for (size_t i = 0; i < runs.size(); ++i) {
        Tally& t = tallies[i];
        if (runs[i].result.status == EvalStatus::kOk) {
          ++t.solved;
          t.total_ms += runs[i].ms;
        } else if (runs[i].result.status == EvalStatus::kTimeout) {
          ++t.to;
        } else {
          ++t.om;
        }
      }
    }
    // Rows in the paper's order: JM, TM, GM.
    for (size_t i : {1, 2, 0}) {
      const Tally& t = tallies[i];
      table.AddRow({dataset, engines[i].name, std::to_string(t.to),
                    std::to_string(t.om), std::to_string(t.solved),
                    t.solved ? FormatSeconds(t.total_ms / t.solved) : "-"});
    }
  }
  table.Print();
  return gate.Finish();
}
