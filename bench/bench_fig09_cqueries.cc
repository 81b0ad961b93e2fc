// Fig. 9: C-query (child-edge-only) evaluation time of GM, TM, JM and ISO on
// ep, bs and hu. Expected shape: GM solves everything; JM is competitive on
// ep but fails on the denser graphs; ISO is sometimes faster (injectivity
// prunes harder) but fails on dense/low-label inputs. Exits 1 when a
// finished TM or JM count differs from GM's, or ISO's exceeds it.

#include "bench_common.h"

using namespace rigpm;
using namespace rigpm::bench;

namespace {

// GM without pre-filtering (the paper does not apply it on C-queries: it
// is not beneficial there), TM, JM and ISO.
std::vector<NamedEngine> Engines(const GmEngine& engine, const Graph& g,
                                 const MatchContext& ctx) {
  return {GmVariant("GM", engine, {.use_prefilter = false}), Tm(ctx),
          Jm(ctx), Iso(g)};
}

void AddRows(const std::vector<NamedEngine>& engines,
             const std::vector<NamedQuery>& queries, CountGate* gate,
             TablePrinter* table) {
  for (const auto& nq : queries) {
    auto runs = Run(engines, nq.name, nq.query, gate);
    table->AddRow({nq.name, runs[0].formatted, runs[1].formatted,
                   runs[2].formatted, runs[3].formatted});
  }
  table->Print();
}

void TemplatePart(const std::string& dataset, CountGate* gate) {
  Graph g = MakeDatasetByName(dataset);
  std::printf("\n-- %s: %s\n", dataset.c_str(), g.Summary().c_str());
  GmEngine engine(g);
  MatchContext ctx(g, engine.reach());
  TablePrinter table({"Query", "GM(s)", "TM(s)", "JM(s)", "ISO(s)"});
  AddRows(Engines(engine, g, ctx),
          TemplateWorkload(g, RepresentativeTemplateNames(),
                           QueryVariant::kChildOnly),
          gate, &table);
}

void ExtractedPart(const std::string& dataset,
                   const std::vector<uint32_t>& sizes, CountGate* gate) {
  Graph g = MakeDatasetByName(dataset);
  std::printf("\n-- %s (random C-queries): %s\n", dataset.c_str(),
              g.Summary().c_str());
  GmEngine engine(g);
  MatchContext ctx(g, engine.reach());
  TablePrinter table({"Query", "GM(s)", "TM(s)", "JM(s)", "ISO(s)"});
  AddRows(Engines(engine, g, ctx),
          ExtractedWorkload(g, sizes, QueryVariant::kChildOnly), gate,
          &table);
}

}  // namespace

int main() {
  PrintBenchHeader("Fig. 9 — C-query evaluation time: GM vs TM vs JM vs ISO",
                   "scale=" + std::to_string(DatasetScaleFromEnv()));
  CountGate gate;
  TemplatePart("ep", &gate);
  TemplatePart("bs", &gate);
  ExtractedPart("hu", {4, 8, 12, 16, 20}, &gate);
  return gate.Finish();
}
