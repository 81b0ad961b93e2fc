// Fig. 13: size and construction time of the query-dependent summary graphs
// and the total query time, on ep H-queries:
//   GM   — pre-filter + double simulation + RIG,
//   GM-S — double simulation only,
//   GM-F — pre-filter only (no simulation),
//   TM   — the spanning tree's answer graph.
// Expected shape: GM/GM-S build the smallest graphs (sub-1% of the data
// graph), GM-F is ~10x larger, and the small RIG pays off in query time.

#include "bench_common.h"

using namespace rigpm;
using namespace rigpm::bench;

namespace {

struct VariantRow {
  std::string size_pct, build_s, total_s;
};

VariantRow RunVariant(const GmEngine& engine, const Graph& g,
                      const PatternQuery& q, bool prefilter, bool sim) {
  GmOptions opts;
  opts.use_prefilter = prefilter;
  opts.use_double_simulation = sim;
  opts.limit = MatchLimitFromEnv();
  GmResult r;
  double total_ms = TimeMs([&] { r = engine.Evaluate(q, opts); });
  double graph_size = static_cast<double>(g.NumNodes() + g.NumEdges());
  double pct = 100.0 * static_cast<double>(r.rig_nodes + r.rig_edges) /
               graph_size;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f%%", pct);
  return {buf,
          FormatSeconds(r.PhaseMs("Prefilter") + r.PhaseMs("Simulate") +
                        r.PhaseMs("BuildRig")),
          FormatSeconds(total_ms)};
}

}  // namespace

int main() {
  PrintBenchHeader(
      "Fig. 13 — summary graph size / build / query time (ep, H-queries)",
      "scale=" + std::to_string(DatasetScaleFromEnv()));
  Graph g = MakeDatasetByName("ep");
  std::printf("graph: %s\n", g.Summary().c_str());
  GmEngine engine(g);
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);

  TablePrinter size_tab({"Query", "GM", "GM-S", "GM-F", "TM"});
  TablePrinter build_tab({"Query", "GM(s)", "GM-S(s)", "GM-F(s)", "TM(s)"});
  TablePrinter query_tab({"Query", "GM(s)", "GM-S(s)", "GM-F(s)", "TM(s)"});

  auto queries = TemplateWorkload(g, RepresentativeTemplateNames(),
                                  QueryVariant::kHybrid);
  const double graph_size = static_cast<double>(g.NumNodes() + g.NumEdges());
  for (const auto& nq : queries) {
    VariantRow gm = RunVariant(engine, g, nq.query, true, true);
    VariantRow gms = RunVariant(engine, g, nq.query, false, true);
    VariantRow gmf = RunVariant(engine, g, nq.query, true, false);

    TmOptions topts;
    topts.limit = MatchLimitFromEnv();
    topts.timeout_ms = TimeoutMsFromEnv();
    TmResult tm;
    double tm_total = TimeMs([&] { tm = TmEvaluate(ctx, nq.query, topts); });
    char tm_pct[32];
    std::snprintf(tm_pct, sizeof(tm_pct), "%.3f%%",
                  100.0 * static_cast<double>(tm.aux_graph_nodes +
                                              tm.aux_graph_edges) /
                      graph_size);
    std::string tm_build = (tm.status == EvalStatus::kOk)
                               ? FormatSeconds(tm.build_ms)
                               : EvalStatusName(tm.status);
    std::string tm_query = (tm.status == EvalStatus::kOk)
                               ? FormatSeconds(tm_total)
                               : EvalStatusName(tm.status);

    size_tab.AddRow({nq.name, gm.size_pct, gms.size_pct, gmf.size_pct, tm_pct});
    build_tab.AddRow({nq.name, gm.build_s, gms.build_s, gmf.build_s, tm_build});
    query_tab.AddRow({nq.name, gm.total_s, gms.total_s, gmf.total_s, tm_query});
  }
  std::printf("\n-- (a) summary graph size as %% of data graph size\n");
  size_tab.Print();
  std::printf("\n-- (b) construction time\n");
  build_tab.Print();
  std::printf("\n-- (c) total query time\n");
  query_tab.Print();
  return 0;
}
