// Fig. 12: effectiveness of the framework's low-level techniques on em.
//  (a) child-constraint checking: binSearch vs bitIter vs bitBat, measured
//      on C-queries (the check dominates the matching phase there);
//  (b) double-simulation construction: Gra (FBSimBas) vs Dag (FBSim) vs
//      DagMap (FBSim + change flags + batch ops), measured on H-queries.
// Expected shape: bitBat >> bitIter >> binSearch; DagMap fastest, Gra
// slowest. Exits 1 when two check modes count a query differently.

#include "bench_common.h"
#include "sim/fbsim.h"

using namespace rigpm;
using namespace rigpm::bench;

int main() {
  PrintBenchHeader(
      "Fig. 12 — child-constraint checking & simulation build (em)",
      "scale=" + std::to_string(DatasetScaleFromEnv()));
  Graph g = MakeDatasetByName("em");
  std::printf("graph: %s\n", g.Summary().c_str());
  GmEngine engine(g);
  MatchContext ctx(g, engine.reach());

  // --- (a) Child-constraint check modes, C-queries, matching time.
  std::printf(
      "\n-- (a) child-constraint check modes (C-queries, matching time)\n");
  CountGate gate;
  {
    std::vector<NamedEngine> engines;
    for (ChildCheckMode mode :
         {ChildCheckMode::kBinSearch, ChildCheckMode::kBitIter,
          ChildCheckMode::kBitBat}) {
      GmOptions opts;
      opts.use_prefilter = false;
      opts.sim.child_check = mode;
      engines.push_back(GmVariant(ChildCheckModeName(mode), engine, opts));
    }
    TablePrinter table({"Query", "binSearch(s)", "bitIter(s)", "bitBat(s)"});
    auto queries = TemplateWorkload(g, RepresentativeTemplateNames(),
                                    QueryVariant::kChildOnly);
    for (const auto& nq : queries) {
      std::vector<std::string> row = {nq.name};
      // One occurrence isolates the matching (checking) phases.
      for (const EngineRun& run :
           Run(engines, nq.name, nq.query, &gate, {.limit = 1})) {
        row.push_back(FormatSeconds(run.result.TotalMs() -
                                    run.result.PhaseMs("Enumerate")));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
  }

  // --- (b) Simulation-relation construction algorithms, H-queries.
  std::printf(
      "\n-- (b) simulation construction: Gra vs Dag vs DagMap "
      "(H-queries)\n");
  {
    TablePrinter table({"Query", "Gra(s)", "Dag(s)", "DagMap(s)"});
    auto queries = TemplateWorkload(g, RepresentativeTemplateNames(),
                                    QueryVariant::kHybrid);
    for (const auto& nq : queries) {
      std::vector<std::string> row = {nq.name};
      for (SimAlgorithm alg :
           {SimAlgorithm::kBas, SimAlgorithm::kDag, SimAlgorithm::kDagMap}) {
        double ms = TimeMs([&] {
          SimOptions sopts;
          sopts.max_passes = 3;
          ComputeDoubleSimulation(ctx, nq.query,
                                  InitialMatchSets(g, nq.query), alg, sopts);
        });
        row.push_back(FormatSeconds(ms));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
  }
  return gate.Finish();
}
