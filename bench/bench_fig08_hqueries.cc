// Fig. 8: H-query evaluation time of GM, TM and JM.
//  (a)/(b): template instances of the acyclic/cyclic/clique/combo classes on
//           em and ep;
//  (c)-(e): random (extracted) hybrid queries of growing size on hp, yt, hu.
// Expected shape: GM solves everything; TM/JM lag by orders of magnitude and
// fail (TO/OM) on the heavy clique/combo queries and the largest sizes.
// Exits 1 when a finished TM or JM count differs from GM's (CountGate).

#include "bench_common.h"

using namespace rigpm;
using namespace rigpm::bench;

namespace {

void TemplatePart(const std::string& dataset, CountGate* gate) {
  Graph g = MakeDatasetByName(dataset);
  std::printf("\n-- %s: %s\n", dataset.c_str(), g.Summary().c_str());
  GmEngine engine(g);
  MatchContext ctx(g, engine.reach());
  const std::vector<NamedEngine> engines = {GmVariant("GM", engine), Tm(ctx),
                                            Jm(ctx)};

  TablePrinter table(
      {"Class", "Query", "GM(s)", "TM(s)", "JM(s)", "GM matches"});
  auto queries = TemplateWorkload(g, RepresentativeTemplateNames(),
                                  QueryVariant::kHybrid);
  for (const auto& nq : queries) {
    auto runs = Run(engines, nq.name, nq.query, gate);
    table.AddRow({PatternClassName(TemplateByName(nq.name).cls), nq.name,
                  runs[0].formatted, runs[1].formatted, runs[2].formatted,
                  std::to_string(runs[0].result.num_occurrences)});
  }
  table.Print();
}

void ExtractedPart(const std::string& dataset,
                   const std::vector<uint32_t>& sizes, CountGate* gate) {
  Graph g = MakeDatasetByName(dataset);
  std::printf("\n-- %s (random H-queries): %s\n", dataset.c_str(),
              g.Summary().c_str());
  GmEngine engine(g);
  MatchContext ctx(g, engine.reach());
  const std::vector<NamedEngine> engines = {GmVariant("GM", engine), Tm(ctx),
                                            Jm(ctx)};

  TablePrinter table({"Query", "GM(s)", "TM(s)", "JM(s)", "GM matches"});
  auto queries = ExtractedWorkload(g, sizes, QueryVariant::kHybrid);
  for (const auto& nq : queries) {
    auto runs = Run(engines, nq.name, nq.query, gate);
    table.AddRow({nq.name, runs[0].formatted, runs[1].formatted,
                  runs[2].formatted,
                  std::to_string(runs[0].result.num_occurrences)});
  }
  table.Print();
}

}  // namespace

int main() {
  PrintBenchHeader("Fig. 8 — H-query evaluation time: GM vs TM vs JM",
                   "limit=" + std::to_string(MatchLimitFromEnv()) +
                       " timeout=" + FormatSeconds(TimeoutMsFromEnv()) + "s" +
                       " scale=" + std::to_string(DatasetScaleFromEnv()));
  CountGate gate;
  TemplatePart("em", &gate);
  TemplatePart("ep", &gate);
  ExtractedPart("hp", {4, 8, 16, 24, 32}, &gate);
  ExtractedPart("yt", {4, 8, 16, 24, 32}, &gate);
  ExtractedPart("hu", {4, 8, 12, 16, 20}, &gate);
  return gate.Finish();
}
