// Refresh latency: full snapshot re-dump + reload vs delta-log replay
// (storage/delta_log.h), on the largest generated bench graph.
//
// The scenario is the ROADMAP's "incremental snapshot deltas" item: a
// served graph receives a batch of new edges and the serving tier must
// start answering with them. Before this PR the only path was a full
// re-dump — rebuild the engine over the merged graph, write the whole
// snapshot, restart/reload the daemon. With the delta log the updater
// appends one small checksummed record and the daemon replays it in place
// (kRefresh), paying only the delta IO plus the index rebuild it would
// have needed anyway. The first table times both pipelines stage by stage
// and cross-checks that they serve identical counts.
//
// The second part measures refresh-under-load on a real QueryServer: 4
// clients hammer a fixed pattern over a Unix socket while the main thread
// appends a batch and sends kRefresh; reported are per-phase p50/p99
// client latencies (before / during+after the swap), the refresh duration,
// and the requirement that not one round trip fails — the RCU engine swap
// must be invisible to clients.
//
// Subject graph: "bs" (the BerkStan analogue, the largest registry entry),
// scaled by RIGPM_SCALE like every other bench.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "query/pattern_parser.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/delta_log.h"
#include "storage/snapshot.h"

using namespace rigpm;
using namespace rigpm::bench;

namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (name + "." + std::to_string(::getpid())))
      .string();
}

double FileMb(const std::string& path) {
  std::error_code ec;
  auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size) / (1024.0 * 1024.0);
}

/// Percentile over a sample copy (nearest-rank).
double Pct(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  size_t rank = static_cast<size_t>(p * static_cast<double>(samples.size()));
  rank = std::min(rank, samples.size() - 1);
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

}  // namespace

int main() {
  const double scale = DatasetScaleFromEnv();
  PrintBenchHeader("Delta refresh — full snapshot re-dump vs delta-log "
                   "replay",
                   "scale=" + std::to_string(scale));

  const DatasetSpec& bs = DatasetByName("bs");
  Graph full = MakeDataset(bs, scale);
  std::printf("graph: %s\n\n", full.Summary().c_str());

  // Hold the last ~0.2% of edges out of the base; they arrive later as two
  // delta batches (the incremental workload).
  std::vector<LabelId> labels(full.NumNodes());
  for (NodeId v = 0; v < full.NumNodes(); ++v) labels[v] = full.Label(v);
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(full.NumEdges());
  for (NodeId v = 0; v < full.NumNodes(); ++v) {
    for (NodeId w : full.OutNeighbors(v)) edges.emplace_back(v, w);
  }
  const size_t held_out =
      std::max<size_t>(2, static_cast<size_t>(edges.size() / 500));
  std::vector<std::pair<NodeId, NodeId>> delta_edges(edges.end() - held_out,
                                                     edges.end());
  edges.resize(edges.size() - held_out);
  Graph base = Graph::FromEdges(labels, std::move(edges));
  std::printf("base: %llu edge(s); arriving later: %zu edge(s) in 2 "
              "batches\n\n",
              static_cast<unsigned long long>(base.NumEdges()), held_out);

  const std::string base_snap = TempPath("rigpm_bench_base.snap");
  const std::string full_snap = TempPath("rigpm_bench_full.snap");
  const std::string delta_log = TempPath("rigpm_bench_graph.delta");
  std::string error;
  GmEngine base_engine(base);
  if (!SaveEngineSnapshot(base_engine, base_snap, &error)) {
    std::fprintf(stderr, "cannot write base snapshot: %s\n", error.c_str());
    return 1;
  }
  auto info = InspectSnapshot(base_snap, &error);
  if (!info.has_value()) {
    std::fprintf(stderr, "cannot inspect base snapshot: %s\n",
                 error.c_str());
    return 1;
  }

  // --- Path A: full re-dump. The updater rebuilds the engine over the
  // merged graph, dumps a complete snapshot, and the daemon reloads it.
  std::optional<Graph> merged_a;
  double apply_a_ms =
      TimeMs([&] { merged_a = ApplyEdgesToGraph(base, delta_edges); });
  std::optional<GmEngine> engine_a;
  double index_a_ms = TimeMs([&] { engine_a.emplace(*merged_a); });
  double dump_ms = TimeMs([&] {
    if (!SaveEngineSnapshot(*engine_a, full_snap, &error)) {
      std::fprintf(stderr, "cannot write full snapshot: %s\n",
                   error.c_str());
      std::exit(1);
    }
  });
  std::optional<WarmEngine> reloaded;
  double reload_ms =
      TimeMs([&] { reloaded = LoadEngineSnapshot(full_snap, {}, &error); });
  if (!reloaded.has_value()) {
    std::fprintf(stderr, "cannot reload full snapshot: %s\n", error.c_str());
    return 1;
  }
  const double full_total =
      apply_a_ms + index_a_ms + dump_ms + reload_ms;

  // --- Path B: delta log. The updater appends two fsynced records; the
  // daemon replays them over its in-memory base and rebuilds the index.
  double append_ms = TimeMs([&] {
    auto writer = DeltaWriter::Open(delta_log, info->stored_checksum,
                                    base.NumNodes(), &error);
    if (writer == nullptr ||
        !writer->Append(std::span<const std::pair<NodeId, NodeId>>(
                            delta_edges.data(), held_out / 2),
                        &error) ||
        !writer->Append(std::span<const std::pair<NodeId, NodeId>>(
                            delta_edges.data() + held_out / 2,
                            held_out - held_out / 2),
                        &error)) {
      std::fprintf(stderr, "delta append failed: %s\n", error.c_str());
      std::exit(1);
    }
  });
  std::optional<Graph> merged_b;
  double replay_ms = TimeMs([&] {
    DeltaRead read = ReadDeltaSince(delta_log, DefaultSnapshotIoMode(),
                                    info->stored_checksum, base.NumNodes());
    if (!read.ok) {
      std::fprintf(stderr, "delta replay failed: %s\n", read.error.c_str());
      std::exit(1);
    }
    merged_b = ApplyDeltaOps(base, read.ops);
  });
  std::optional<GmEngine> engine_b;
  double index_b_ms = TimeMs([&] { engine_b.emplace(*merged_b); });
  const double delta_total = append_ms + replay_ms + index_b_ms;

  // Correctness: both refreshed engines serve identical counts.
  const std::string probe = "(a:0)->(b:1)";
  auto q = ParsePattern(probe);
  GmOptions qopts;
  qopts.limit = MatchLimitFromEnv();
  uint64_t count_a = reloaded->engine->EvaluateCollect(*q, qopts).size();
  uint64_t count_b = engine_b->EvaluateCollect(*q, qopts).size();
  if (count_a != count_b) {
    std::fprintf(stderr, "FAIL: re-dump served %llu but delta served %llu\n",
                 static_cast<unsigned long long>(count_a),
                 static_cast<unsigned long long>(count_b));
    return 1;
  }

  TablePrinter table({"stage", "re-dump(s)", "delta(s)", "file(MB)"});
  char mb[32];
  table.AddRow({"apply edges in memory", FormatSeconds(apply_a_ms),
                "(in replay)", ""});
  table.AddRow({"rebuild BFL + intervals", FormatSeconds(index_a_ms),
                FormatSeconds(index_b_ms), ""});
  std::snprintf(mb, sizeof(mb), "%.1f", FileMb(full_snap));
  table.AddRow({"dump full snapshot", FormatSeconds(dump_ms), "-", mb});
  table.AddRow({"reload full snapshot", FormatSeconds(reload_ms), "-", ""});
  std::snprintf(mb, sizeof(mb), "%.3f", FileMb(delta_log));
  table.AddRow({"append delta (fsync x2)", "-", FormatSeconds(append_ms),
                mb});
  table.AddRow({"replay delta", "-", FormatSeconds(replay_ms), ""});
  table.AddRow({"TOTAL refresh", FormatSeconds(full_total),
                FormatSeconds(delta_total), ""});
  table.Print();
  std::printf("\nverify: both paths serve %llu occurrence(s) of \"%s\"\n",
              static_cast<unsigned long long>(count_a), probe.c_str());
  std::printf("delta refresh speedup: %.1fx (%.0f ms -> %.0f ms)%s\n\n",
              delta_total > 0 ? full_total / delta_total : 0.0, full_total,
              delta_total,
              delta_total < full_total ? "" : "  ** NOT FASTER **");

  // ------------------------------------------------ refresh under load
  // A real daemon on a Unix socket: 4 clients in a query loop while the
  // log gains a batch and a kRefresh lands. No round trip may fail.
  std::printf("refresh under load (4 clients, Unix socket):\n");
  std::remove(delta_log.c_str());
  auto catalog = std::make_shared<server::EngineCatalog>();
  server::EngineSource source;
  source.snapshot_path = base_snap;
  source.delta_path = delta_log;
  if (!catalog->Register("default", source, &error) ||
      catalog->Acquire("", &error) == nullptr) {
    std::fprintf(stderr, "cannot open base snapshot: %s\n", error.c_str());
    return 1;
  }
  constexpr int kClients = 4;
  server::ServerConfig config;
  config.unix_path = TempPath("rigpm_bench_delta.sock");
  // FEWER workers than steady clients, on purpose: the event loop
  // multiplexes every connection over the pool, so the refresher gets
  // served promptly even with all workers oversubscribed.
  config.num_workers = 2;
  server::QueryServer server(catalog, config);
  if (!server.Start(&error)) {
    std::fprintf(stderr, "cannot start server: %s\n", error.c_str());
    return 1;
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> refreshed{false};
  std::atomic<int> failures{0};
  std::vector<double> samples_before, samples_after;
  std::mutex samples_mu;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      server::QueryClient client;
      std::string cerr;
      if (!client.ConnectUnix(config.unix_path, &cerr)) {
        ++failures;
        return;
      }
      server::QueryRequest req;
      req.patterns = {probe};
      req.limit = 2000;  // bound each round trip
      while (!stop.load(std::memory_order_relaxed)) {
        std::optional<server::QueryResponse> resp;
        double ms = TimeMs([&] { resp = client.Query(req, &cerr); });
        if (!resp.has_value() ||
            resp->status != server::StatusCode::kOk) {
          ++failures;
          return;
        }
        {
          std::lock_guard<std::mutex> lock(samples_mu);
          (refreshed.load() ? samples_after : samples_before).push_back(ms);
        }
        // Paced load, not a saturation test: on small CI boxes 4 flat-out
        // clients would starve the refresh of its one core and the p99
        // would measure queueing, not the engine swap.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  {
    auto writer = DeltaWriter::Open(delta_log, info->stored_checksum,
                                    base.NumNodes(), &error);
    if (writer == nullptr || !writer->Append(delta_edges, &error)) {
      std::fprintf(stderr, "delta append failed: %s\n", error.c_str());
      return 1;
    }
  }
  server::QueryClient refresher;
  double refresh_ms = 0.0;
  if (!refresher.ConnectUnix(config.unix_path, &error)) {
    std::fprintf(stderr, "cannot connect refresher: %s\n", error.c_str());
    return 1;
  }
  std::optional<server::RefreshResponse> rresp;
  refresh_ms = TimeMs([&] { rresp = refresher.Refresh(&error); });
  refreshed.store(true);
  if (!rresp.has_value() || rresp->status != server::StatusCode::kOk) {
    std::fprintf(stderr, "refresh failed: %s\n",
                 rresp.has_value() ? rresp->error.c_str() : error.c_str());
    return 1;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  stop.store(true);
  for (std::thread& t : clients) t.join();
  server.Stop();
  std::remove(base_snap.c_str());
  std::remove(full_snap.c_str());
  std::remove(delta_log.c_str());

  if (failures.load() != 0) {
    std::fprintf(stderr, "FAIL: %d client round trip(s) failed during "
                 "refresh\n", failures.load());
    return 1;
  }
  TablePrinter load_table(
      {"phase", "queries", "p50(ms)", "p99(ms)"});
  char p50[32], p99[32], n[32];
  std::snprintf(n, sizeof(n), "%zu", samples_before.size());
  std::snprintf(p50, sizeof(p50), "%.2f", Pct(samples_before, 0.50));
  std::snprintf(p99, sizeof(p99), "%.2f", Pct(samples_before, 0.99));
  load_table.AddRow({"before refresh", n, p50, p99});
  std::snprintf(n, sizeof(n), "%zu", samples_after.size());
  std::snprintf(p50, sizeof(p50), "%.2f", Pct(samples_after, 0.50));
  std::snprintf(p99, sizeof(p99), "%.2f", Pct(samples_after, 0.99));
  load_table.AddRow({"during/after refresh", n, p50, p99});
  load_table.Print();
  std::printf("\nrefresh: %llu record(s), %llu edge(s) in %.1f ms "
              "(engine swap; 0 failed round trips)\n",
              static_cast<unsigned long long>(rresp->records_applied),
              static_cast<unsigned long long>(rresp->edges_in_records),
              refresh_ms);
  return 0;
}
