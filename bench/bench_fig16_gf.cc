// Fig. 16: comparison of GM with the GraphflowDB-style engine (GF) on
// C-queries.
//  (a) catalog building time per dataset (GF's precomputation); OM marks the
//      entry-budget blowups the paper hit on em/ep/hp;
//  (b) query time GM vs GF on representative C-queries. Expected shape: GF
//      can win on graphs with very few labels (am/bs/go shapes); GM wins —
//      by orders of magnitude — when the label alphabet is larger (hu/yt).
// Exits 1 when a finished GF count differs from GM's.

#include "bench_common.h"
#include "baseline/catalog.h"

using namespace rigpm;
using namespace rigpm::bench;

int main() {
  PrintBenchHeader("Fig. 16 — GM vs GF (WCO-join engine with catalog)",
                   "scale=" + std::to_string(DatasetScaleFromEnv()));

  // --- (a) Catalog build cost. Budget mirrors the paper's memory ceiling.
  const uint64_t kCatalogBudget = 2'000'000;
  std::printf("\n-- (a) GF catalog building time\n");
  TablePrinter cat_tab({"Dataset", "Catalog(s)", "Entries / status"});
  for (const std::string& name : {"em", "ep", "hp", "yt", "hu", "bs", "go",
                                  "am"}) {
    Graph g = MakeDatasetByName(name);
    CatalogResult r = BuildCatalog(g, kCatalogBudget);
    cat_tab.AddRow({name,
                    r.status == EvalStatus::kOk ? FormatSeconds(r.build_ms)
                                                : EvalStatusName(r.status),
                    r.status == EvalStatus::kOk ? std::to_string(r.entries)
                                                : "OM"});
  }
  cat_tab.Print();

  // --- (b) C-query evaluation, GM vs GF.
  std::printf("\n-- (b) C-query time, GM vs GF\n");
  TablePrinter q_tab({"Dataset", "Query", "GM(s)", "GF(s)"});
  CountGate gate;
  for (const std::string& name : {"am", "bs", "go", "hu", "yt"}) {
    Graph g = MakeDatasetByName(name);
    GmEngine engine(g);
    WcojEngine gf(g);
    const std::vector<NamedEngine> engines = {
        GmVariant("GM", engine, {.use_prefilter = false}), Wcoj("GF", gf)};
    // On the label-rich biology graphs, template instances are frequently
    // empty; use extracted queries (guaranteed matches) there instead, as
    // the paper's biology workloads do.
    std::vector<NamedQuery> queries;
    if (name == "hu" || name == "yt") {
      queries = ExtractedWorkload(g, {6, 8, 10}, QueryVariant::kChildOnly);
    } else {
      queries = TemplateWorkload(g, {"HQ17", "HQ19", "HQ16"},
                                 QueryVariant::kChildOnly);
    }
    for (const auto& nq : queries) {
      auto runs = Run(engines, nq.name, nq.query, &gate);
      std::string label = (nq.name[0] == 'H') ? "C" + nq.name.substr(1)
                                              : nq.name;
      q_tab.AddRow({name, label, runs[0].formatted, runs[1].formatted});
    }
  }
  q_tab.Print();
  return gate.Finish();
}
