// Fig. 18: reachability (D-)queries on Email fragments.
//  (a) precomputation cost: BFL (GM's index) vs the full transitive closure
//      (what GF needs to run reachability queries) vs the GF catalog, as
//      the fragment grows. Expected shape: BFL stays near zero; TC grows
//      superlinearly; the catalog blows up with the label count.
//  (b) query time on 1k-node fragments with 5..20 labels: GM vs GF (with
//      materialized closure; build time NOT charged, as in the paper) vs
//      the Neo4j-style engine (binary joins, index-free reachability).
//      Exits 1 when a finished GF or Neo4j count differs from GM's.

#include "bench_common.h"
#include "baseline/catalog.h"
#include "reach/transitive_closure.h"

using namespace rigpm;
using namespace rigpm::bench;

int main() {
  PrintBenchHeader("Fig. 18 — reachability graph pattern queries (Email)",
                   "limit=" + std::to_string(MatchLimitFromEnv()));
  const DatasetSpec& em = DatasetByName("em");

  // --- (a) Index construction costs.
  std::printf(
      "\n-- (a) BFL vs transitive closure (TC) vs catalog (CAT) build\n");
  TablePrinter build_tab({"#labels", "#nodes", "BFL(s)", "TC(s)", "CAT(s)"});
  struct Config {
    uint32_t labels, nodes;
  };
  for (Config c : {Config{5, 1000}, Config{10, 1000}, Config{15, 1000},
                   Config{20, 1000}, Config{20, 2000}, Config{20, 3000},
                   Config{20, 5000}}) {
    DatasetSpec spec = em;
    spec.num_labels = c.labels;
    Graph g = MakeDatasetWithNodes(spec, c.nodes);
    double bfl_ms = TimeMs([&] {
      auto idx = BuildReachabilityIndex(g, ReachKind::kBfl);
      (void)idx;
    });
    WcojEngine gf(g);
    double tc_ms = 0.0;
    EvalStatus tc_status =
        gf.MaterializeClosure(/*max_bytes=*/512u << 20, &tc_ms);
    CatalogResult cat = BuildCatalog(g, 2'000'000);
    build_tab.AddRow(
        {std::to_string(c.labels), std::to_string(c.nodes),
         FormatSeconds(bfl_ms),
         tc_status == EvalStatus::kOk ? FormatSeconds(tc_ms)
                                      : EvalStatusName(tc_status),
         cat.status == EvalStatus::kOk ? FormatSeconds(cat.build_ms)
                                       : EvalStatusName(cat.status)});
  }
  build_tab.Print();

  // --- (b) D-query time on 1k-node fragments with varying labels.
  std::printf("\n-- (b) D-query time on 1k-node Email fragments\n");
  TablePrinter q_tab({"Query", "Alg.", "#lbs=5", "#lbs=10", "#lbs=15",
                      "#lbs=20"});
  CountGate gate;
  for (const std::string& name : {"DQ4", "DQ15", "DQ16"}) {
    std::string tpl = "HQ" + name.substr(2);
    std::vector<std::string> neo_row = {name, "Neo4j"};
    std::vector<std::string> gf_row = {name, "GF"};
    std::vector<std::string> gm_row = {name, "GM"};
    for (uint32_t labels : {5u, 10u, 15u, 20u}) {
      DatasetSpec spec = em;
      spec.num_labels = labels;
      Graph g = MakeDatasetWithNodes(spec, 1000);
      GmEngine engine(g);
      // Neo4j stand-in: binary joins, BFS (index-free) reachability.
      auto bfs = BuildReachabilityIndex(g, ReachKind::kBfs);
      MatchContext neo_ctx(g, *bfs);
      WcojEngine gf(g);
      gf.MaterializeClosure(512u << 20, nullptr);
      const std::vector<NamedEngine> engines = {
          GmVariant("GM", engine), Wcoj("GF", gf), Neo4j(neo_ctx)};

      auto queries =
          TemplateWorkload(g, {tpl}, QueryVariant::kDescendantOnly, 23);
      auto runs = Run(engines, name, queries.front().query, &gate);
      gm_row.push_back(runs[0].formatted);
      gf_row.push_back(runs[1].formatted);
      neo_row.push_back(runs[2].formatted);
    }
    q_tab.AddRow(std::move(neo_row));
    q_tab.AddRow(std::move(gf_row));
    q_tab.AddRow(std::move(gm_row));
  }
  q_tab.Print();
  return gate.Finish();
}
