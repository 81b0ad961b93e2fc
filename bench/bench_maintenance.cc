// Maintenance costs (server/catalog.h RunMaintenance/Compact): what the
// daemon's background thread pays per tick, and what a compaction does to
// concurrent query latency.
//
// Part 1 — caught-up poll cost: a tenant whose log holds many
// already-applied records is polled two ways. A client kRefresh
// re-validates the whole chain from the header every time (by design —
// that scan is what refuses a rewritten log), so its cost grows with the
// log. The maintenance poll answers the same "anything new?" question from
// one stat() against the stored applied-end offset — per-tick cost
// independent of log length; only a log that changed size is read, the
// same way a kRefresh reads it. The table shows per-poll microseconds for
// both paths on the same log.
//
// Part 2 — compaction pause: a query thread hammers the catalog while the
// main thread runs append+compact cycles (snapshot re-dump, lineage
// republish, RCU re-point). Reported: compaction wall time and the p50/p99
// query latency during the compaction window vs an idle baseline — the RCU
// swap should leave the tail essentially untouched.
//
// Subject graph: "bs" scaled by RIGPM_SCALE, like every other bench.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "query/pattern_parser.h"
#include "server/catalog.h"
#include "storage/delta_log.h"
#include "storage/lineage.h"
#include "storage/snapshot.h"

using namespace rigpm;
using namespace rigpm::bench;
using namespace rigpm::server;

namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (name + "." + std::to_string(::getpid())))
      .string();
}

double Pct(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  size_t rank = static_cast<size_t>(p * static_cast<double>(samples.size()));
  rank = std::min(rank, samples.size() - 1);
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

void RemoveAllGenerations(const std::string& snap, const std::string& delta) {
  for (uint64_t g = 1; g <= 16; ++g) {
    std::remove(GenerationPath(snap, g).c_str());
    std::remove(GenerationPath(delta, g).c_str());
  }
  std::remove(LineageHeadPath(snap).c_str());
  std::remove(snap.c_str());
  std::remove(delta.c_str());
}

}  // namespace

int main() {
  const double scale = DatasetScaleFromEnv();
  PrintBenchHeader("Maintenance — caught-up poll cost and compaction pause",
                   "scale=" + std::to_string(scale));

  const DatasetSpec& bs = DatasetByName("bs");
  Graph graph = MakeDataset(bs, scale);
  std::printf("graph: %s\n\n", graph.Summary().c_str());

  const std::string snap = TempPath("maint_base.snap");
  const std::string delta = TempPath("maint.delta");
  std::string error;
  {
    GmEngine cold(graph);
    if (!SaveEngineSnapshot(cold, snap, &error)) {
      std::fprintf(stderr, "snapshot failed: %s\n", error.c_str());
      return 1;
    }
  }
  auto info = InspectSnapshot(snap, &error);
  if (!info.has_value()) {
    std::fprintf(stderr, "inspect failed: %s\n", error.c_str());
    return 1;
  }

  // A log long enough that a full-chain read vs one stat() is visible: many
  // small already-applied records (each a mixed add/delete batch).
  constexpr int kRecords = 256;
  constexpr int kOpsPerRecord = 8;
  {
    auto writer =
        DeltaWriter::Open(delta, info->stored_checksum, graph.NumNodes(),
                          &error, {.fsync_each_append = false});
    if (writer == nullptr) {
      std::fprintf(stderr, "writer open failed: %s\n", error.c_str());
      return 1;
    }
    uint64_t next = 0;
    for (int r = 0; r < kRecords; ++r) {
      std::vector<DeltaOp> ops;
      for (int i = 0; i < kOpsPerRecord; ++i) {
        NodeId u = static_cast<NodeId>(next++ % graph.NumNodes());
        auto nbrs = graph.OutNeighbors(u);
        if (i % 2 == 1 && !nbrs.empty()) {
          ops.push_back({u, nbrs[0], DeltaOpKind::kDelete});
        } else {
          ops.push_back(
              {u, static_cast<NodeId>((u + 1) % graph.NumNodes()),
               DeltaOpKind::kAdd});
        }
      }
      if (!writer->AppendOps(ops, &error)) {
        std::fprintf(stderr, "append failed: %s\n", error.c_str());
        return 1;
      }
    }
  }

  EngineCatalog catalog;
  EngineSource source;
  source.snapshot_path = snap;
  source.delta_path = delta;
  if (!catalog.Register("g", source, &error)) {
    std::fprintf(stderr, "register failed: %s\n", error.c_str());
    return 1;
  }
  if (catalog.Acquire("g", &error) == nullptr) {  // replay all records
    std::fprintf(stderr, "open failed: %s\n", error.c_str());
    return 1;
  }
  catalog.SetMaintenancePolicy({.auto_compact_ratio = 0.0,
                                .interval_ms = 1});

  // ----- part 1: caught-up poll, full-chain kRefresh vs one stat()
  constexpr int kPolls = 200;
  double full_ms = TimeMs([&] {
    for (int i = 0; i < kPolls; ++i) {
      CatalogRefreshResult r = catalog.Refresh("g");
      if (!r.ok) {
        std::fprintf(stderr, "refresh failed: %s\n", r.error.c_str());
        std::exit(1);
      }
    }
  });
  double fast_ms = TimeMs([&] {
    for (int i = 0; i < kPolls; ++i) catalog.RunMaintenance();
  });

  TablePrinter poll({"caught-up poll over " + std::to_string(kRecords) +
                         " applied records",
                     "per poll(us)"});
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", full_ms * 1000.0 / kPolls);
  poll.AddRow({"client kRefresh (full-chain re-validate)", buf});
  std::snprintf(buf, sizeof(buf), "%.1f", fast_ms * 1000.0 / kPolls);
  poll.AddRow({"maintenance tick (stat vs applied end offset)", buf});
  poll.Print();
  std::printf("\n");

  // ----- part 2: compaction pause under concurrent queries
  const std::string probe = "(a:0)->(b:1)";
  auto q = ParsePattern(probe);
  GmOptions qopts;
  qopts.limit = 1000;  // small fixed probe: latency, not throughput

  std::atomic<bool> stop{false};
  std::atomic<bool> compacting{false};
  std::vector<double> idle_lat, pause_lat;
  std::thread prober([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      bool during = compacting.load(std::memory_order_relaxed);
      std::string perr;
      double ms = TimeMs([&] {
        auto state = catalog.Acquire("g", &perr);
        if (state == nullptr) {
          std::fprintf(stderr, "acquire failed: %s\n", perr.c_str());
          std::exit(1);
        }
        (void)state->engine->EvaluateCollect(*q, qopts).size();
      });
      (during ? pause_lat : idle_lat).push_back(ms);
    }
  });

  // Idle baseline, then append+compact cycles.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  constexpr int kCycles = 4;
  std::vector<double> compact_ms;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    Lineage lineage;
    if (!ResolveLineage(snap, delta, &lineage, &error)) {
      std::fprintf(stderr, "resolve failed: %s\n", error.c_str());
      return 1;
    }
    auto gen_info = InspectSnapshot(lineage.snapshot_path, &error);
    auto writer = DeltaWriter::Open(lineage.delta_path,
                                    gen_info->stored_checksum,
                                    graph.NumNodes(), &error,
                                    {.fsync_each_append = false});
    if (writer == nullptr) {
      std::fprintf(stderr, "reopen failed: %s\n", error.c_str());
      return 1;
    }
    std::vector<DeltaOp> ops = {
        {static_cast<NodeId>(cycle), static_cast<NodeId>(cycle + 2),
         DeltaOpKind::kAdd}};
    if (!writer->AppendOps(ops, &error)) {
      std::fprintf(stderr, "append failed: %s\n", error.c_str());
      return 1;
    }
    writer.reset();  // release the flock or the compaction politely skips

    compacting.store(true, std::memory_order_relaxed);
    double ms = TimeMs([&] {
      CatalogCompactionResult c = catalog.Compact("g");
      if (!c.ok || c.skipped) {
        std::fprintf(stderr, "compact failed: %s%s\n", c.error.c_str(),
                     c.skipped ? " (skipped)" : "");
        std::exit(1);
      }
    });
    compacting.store(false, std::memory_order_relaxed);
    compact_ms.push_back(ms);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  prober.join();

  MaintenanceStats ms_stats = catalog.maintenance_stats();
  TablePrinter pause({"compaction under load", "value"});
  std::snprintf(buf, sizeof(buf), "%.1f", Pct(compact_ms, 0.5));
  pause.AddRow({"compaction wall p50 (ms)", buf});
  std::snprintf(buf, sizeof(buf), "%.1f",
                *std::max_element(compact_ms.begin(), compact_ms.end()));
  pause.AddRow({"compaction wall max (ms)", buf});
  std::snprintf(buf, sizeof(buf), "%.2f / %.2f", Pct(idle_lat, 0.5),
                Pct(idle_lat, 0.99));
  pause.AddRow({"query p50/p99 idle (ms)", buf});
  std::snprintf(buf, sizeof(buf), "%.2f / %.2f", Pct(pause_lat, 0.5),
                Pct(pause_lat, 0.99));
  pause.AddRow({"query p50/p99 during compaction (ms)", buf});
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(ms_stats.bytes_reclaimed));
  pause.AddRow({"bytes reclaimed over " + std::to_string(kCycles) +
                    " compactions",
                buf});
  pause.Print();
  std::printf("\nqueries sampled: %zu idle, %zu during compaction\n",
              idle_lat.size(), pause_lat.size());

  RemoveAllGenerations(snap, delta);
  return 0;
}
