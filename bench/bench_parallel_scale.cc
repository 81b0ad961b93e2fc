// Parallel scaling across queries: GmEngine::EvaluateBatch spreads a batch
// of independent queries over GmOptions::num_threads workers, each calling
// GmEngine::Evaluate, on the fig11-scale workload (DBLP subsets, H-queries).
// Elapsed time and speedup vs worker count. Each query evaluates
// sequentially inside its worker, so nothing is serial across workers and
// the speedup should approach the worker count up to the core count.
// Exits 1 when a query's count under N workers differs from its sequential
// count (CountGate).

#include <thread>

#include "bench_common.h"

using namespace rigpm;
using namespace rigpm::bench;

namespace {

std::string Ratio(double base_ms, double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", ms > 0 ? base_ms / ms : 0.0);
  return buf;
}

}  // namespace

int main() {
  PrintBenchHeader("Parallel scale — time & speedup vs worker count",
                   "scale=" + std::to_string(DatasetScaleFromEnv()) +
                       " hw_threads=" +
                       std::to_string(std::thread::hardware_concurrency()));
  const DatasetSpec& db = DatasetByName("db");
  const double scale = DatasetScaleFromEnv();
  Graph g = MakeDatasetWithNodes(
      db, static_cast<uint32_t>(300'000 * scale));
  GmEngine engine(g);

  // The representative template mix, every query independent, workers
  // pulling from the shared batch queue.
  auto named = TemplateWorkload(g, RepresentativeTemplateNames(),
                                QueryVariant::kHybrid, /*seed=*/17);
  std::vector<PatternQuery> batch;
  for (const NamedQuery& nq : named) batch.push_back(nq.query);
  // Replicate the mix so the batch comfortably outnumbers the workers.
  const size_t base = batch.size();
  for (int copy = 0; copy < 3; ++copy) {
    for (size_t i = 0; i < base; ++i) batch.push_back(batch[i]);
  }

  std::printf("\n-- batch of %zu queries (EvaluateBatch)\n", batch.size());
  TablePrinter table({"threads", "wall(s)", "speedup", "queries/s", "matches"});
  double base_ms = 0.0;
  std::vector<GmResult> sequential;
  CountGate gate;
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    GmOptions opts;
    opts.limit = MatchLimitFromEnv();
    opts.num_threads = threads;
    std::vector<GmResult> results;
    double ms = TimeMs([&] { results = engine.EvaluateBatch(batch, opts); });
    if (threads == 1) {
      base_ms = ms;
      sequential = results;
    }
    uint64_t matches = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      matches += results[i].num_occurrences;
      if (threads == 1) continue;
      gate.Check(named[i % base].name, std::to_string(threads) + " workers",
                 CountKind::kHomomorphism, EvalStatus::kOk,
                 results[i].num_occurrences, sequential[i].num_occurrences,
                 opts.limit);
    }
    char qps[32];
    std::snprintf(qps, sizeof(qps), "%.1f", batch.size() * 1000.0 / ms);
    table.AddRow({std::to_string(threads), FormatSeconds(ms),
                  Ratio(base_ms, ms), qps, std::to_string(matches)});
  }
  table.Print();
  return gate.Finish();
}
