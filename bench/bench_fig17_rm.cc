// Fig. 17: GM-JO and GM-RI vs the RapidMatch-style engine (RM = WCO joins
// with a topology-driven order) on large dense and sparse C-query sets over
// the Human graph. Expected shape: GM-JO wins on dense queries (cardinality
// information pays off), GM-RI wins on sparse ones; RM sits in between.
// Exits 1 when GM-RI's or a finished RM count differs from GM-JO's.

#include "bench_common.h"
#include "query/query_generator.h"

using namespace rigpm;
using namespace rigpm::bench;

namespace {

void RunSet(const Graph& g, const std::vector<NamedEngine>& engines,
            bool dense, CountGate* gate) {
  std::printf("\n-- %s query sets (mean time per size)\n",
              dense ? "dense" : "sparse");
  TablePrinter table({"Size", "GM-JO(ms)", "GM-RI(ms)", "RM(ms)", "#queries"});
  for (uint32_t size : {8u, 12u, 16u, 20u}) {
    double jo_ms = 0, ri_ms = 0, rm_ms = 0;
    int count = 0;
    for (uint32_t i = 0; i < 3; ++i) {
      ExtractedQueryOptions opts;
      opts.num_nodes = size;
      opts.variant = QueryVariant::kChildOnly;
      opts.seed = 1000 + size * 10 + i;
      opts.dense = dense;
      opts.max_attempts = 400;
      auto q = ExtractQueryFromGraph(g, opts);
      if (!q.has_value()) continue;
      ++count;
      auto runs = Run(engines, std::to_string(size) + "N", *q, gate);
      jo_ms += runs[0].ms;
      ri_ms += runs[1].ms;
      rm_ms += runs[2].ms;
    }
    auto fmt = [&](double total) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f", count ? total / count : 0.0);
      return std::string(buf);
    };
    table.AddRow({std::to_string(size) + "N", fmt(jo_ms), fmt(ri_ms),
                  fmt(rm_ms), std::to_string(count)});
  }
  table.Print();
}

}  // namespace

int main() {
  PrintBenchHeader("Fig. 17 — GM-JO / GM-RI vs RM on Human (large C-queries)",
                   "scale=" + std::to_string(DatasetScaleFromEnv()));
  // RM treats graphs as undirected; store each edge both ways (§7.5).
  Graph g = Graph::MakeBidirected(MakeDatasetByName("hu"));
  std::printf("graph: %s\n", g.Summary().c_str());
  GmEngine engine(g);
  WcojEngine rm(g);
  const std::vector<NamedEngine> engines = {
      GmVariant("GM-JO", engine, {.use_prefilter = false}),
      GmVariant("GM-RI", engine,
                {.use_prefilter = false, .order = OrderStrategy::kRI}),
      Wcoj("RM", rm, /*use_ri_order=*/true)};
  CountGate gate;
  RunSet(g, engines, /*dense=*/true, &gate);
  RunSet(g, engines, /*dense=*/false, &gate);
  return gate.Finish();
}
