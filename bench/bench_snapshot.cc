// Cold-start vs warm-start serving cost (the persistence subsystem,
// storage/snapshot.h).
//
// Cold start is what every process start paid before snapshots existed:
// parse the text graph, then rebuild the BFL reachability index, the
// condensation, and the interval labels from scratch. Warm start streams the
// same structures back from a versioned binary snapshot, so restart cost is
// I/O-bound instead of recompute-bound. The bench reports both paths
// stage-by-stage on the largest generated bench graph (the fig11-scale DBLP
// analogue) and gates the warm engine's occurrence counts against the cold
// one's (CountGate): a difference exits 1.
//
// The subject is "bs" — the largest generated bench graph (685k nodes,
// 7.6M edges at scale 1, the BerkStan analogue): text parse cost scales
// with the edge count (one line per edge) while binary load is
// memcpy-bound, so this is exactly the shape where restarts hurt most.
//
// The second table isolates the two warm-start IO modes in forked child
// processes (so each child's VmHWM reflects only its own load): `read`
// slurps the payload into private memory and decodes by copying — peak RSS
// ~2x payload — while `mmap` checksums the mapping in place and decodes
// into borrowed views — peak RSS ~1x payload, all of it page-cache-backed
// and shared with any other process mapping the same snapshot.
//
// Knobs: RIGPM_SCALE scales the graph (default 0.1; CI smoke uses less).

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>

#include "bench_common.h"
#include "graph/graph_io.h"
#include "query/pattern_parser.h"
#include "storage/snapshot.h"

using namespace rigpm;
using namespace rigpm::bench;

namespace {

// The occurrence cap of the warm-start children's first query.
constexpr uint64_t kProbeLimit = 100000;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

double FileMb(const std::string& path) {
  std::error_code ec;
  auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size) / (1024.0 * 1024.0);
}

// What one forked warm-start child reports back through its pipe.
struct WarmStartReport {
  int ok = 0;
  double load_ms = 0.0;
  double first_query_ms = 0.0;
  uint64_t count = 0;
  long vm_hwm_kb = -1;  // peak RSS
  long vm_rss_kb = -1;  // RSS after load + first query
};

// Runs one warm start in a fork so VmHWM measures just that load path, not
// the cold build / other mode that already ran in this process.
WarmStartReport MeasureWarmStart(const std::string& snap_path,
                                 SnapshotIoMode mode,
                                 const std::string& pattern) {
  int fds[2];
  WarmStartReport report;
  if (::pipe(fds) != 0) return report;
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return report;
  }
  if (pid == 0) {
    ::close(fds[0]);
    WarmStartReport r;
    std::string error;
    std::optional<WarmEngine> warm;
    r.load_ms =
        TimeMs([&] {
          warm = LoadEngineSnapshot(snap_path, {.io_mode = mode}, &error);
        });
    if (warm.has_value()) {
      auto q = ParsePattern(pattern, &error);
      if (q.has_value()) {
        GmOptions opts;
        opts.limit = kProbeLimit;
        GmResult res;
        r.first_query_ms =
            TimeMs([&] { res = warm->engine->Evaluate(*q, opts); });
        r.count = res.num_occurrences;
        r.vm_hwm_kb = ReadProcStatusKb("VmHWM");
        r.vm_rss_kb = ReadProcStatusKb("VmRSS");
        r.ok = 1;
      }
    }
    ssize_t written = ::write(fds[1], &r, sizeof(r));
    ::close(fds[1]);
    ::_exit(written == sizeof(r) && r.ok ? 0 : 1);
  }
  ::close(fds[1]);
  ssize_t got = ::read(fds[0], &report, sizeof(report));
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (got != sizeof(report)) report.ok = 0;
  return report;
}

std::string FormatMb(long kb) {
  if (kb < 0) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", kb / 1024.0);
  return buf;
}

}  // namespace

int main() {
  const double scale = DatasetScaleFromEnv();
  PrintBenchHeader("Snapshot — cold start (text parse + index build) vs "
                   "warm start (binary load)",
                   "scale=" + std::to_string(scale));

  const DatasetSpec& bs = DatasetByName("bs");
  Graph g = MakeDataset(bs, scale);
  std::printf("graph: %s\n\n", g.Summary().c_str());

  const std::string text_path = TempPath("rigpm_bench_graph.txt");
  const std::string snap_path = TempPath("rigpm_bench_engine.snap");
  std::string error;
  if (!WriteGraphFile(g, text_path, &error)) {
    std::fprintf(stderr, "cannot write text graph: %s\n", error.c_str());
    return 1;
  }

  // --- Cold start: the pre-snapshot restart path.
  std::optional<Graph> cold_graph;
  double parse_ms = TimeMs([&] { cold_graph = ReadGraphFile(text_path); });
  if (!cold_graph.has_value()) {
    std::fprintf(stderr, "cold parse failed\n");
    return 1;
  }
  std::optional<GmEngine> cold_engine;
  double build_ms = TimeMs([&] { cold_engine.emplace(*cold_graph); });
  const double cold_ms = parse_ms + build_ms;

  // --- Snapshot save (one-time cost, amortized over every later restart).
  double save_ms = TimeMs([&] {
    if (!SaveEngineSnapshot(*cold_engine, snap_path, &error)) {
      std::fprintf(stderr, "snapshot save failed: %s\n", error.c_str());
      std::exit(1);
    }
  });

  // --- Warm start: deserialize graph + pre-built index.
  std::optional<WarmEngine> warm;
  double load_ms =
      TimeMs([&] { warm = LoadEngineSnapshot(snap_path, {}, &error); });
  if (!warm.has_value()) {
    std::fprintf(stderr, "snapshot load failed: %s\n", error.c_str());
    return 1;
  }

  TablePrinter table({"stage", "time(s)", "file(MB)"});
  char mb[32];
  std::snprintf(mb, sizeof(mb), "%.1f", FileMb(text_path));
  table.AddRow({"cold: parse text graph", FormatSeconds(parse_ms), mb});
  table.AddRow({"cold: build BFL + intervals", FormatSeconds(build_ms), ""});
  table.AddRow({"cold: total", FormatSeconds(cold_ms), ""});
  std::snprintf(mb, sizeof(mb), "%.1f", FileMb(snap_path));
  table.AddRow({"snapshot save (one-time)", FormatSeconds(save_ms), mb});
  table.AddRow({"warm: load snapshot", FormatSeconds(load_ms), ""});
  table.Print();
  std::printf("\nwarm-start speedup: %.1fx (cold %.0f ms -> warm %.0f ms)\n",
              load_ms > 0 ? cold_ms / load_ms : 0.0, cold_ms, load_ms);

  // --- Warm-start IO mode comparison: slurp (read) vs zero-copy (mmap),
  // each in its own fork so peak RSS is attributable. First-query latency
  // is reported because mmap defers page faults: the load gets cheaper, the
  // first touches pay for the pages actually used.
  CountGate gate;
  std::printf("\nwarm-start IO modes (each in a fork; first query = "
              "\"(a:0)->(b:1)\", limit 100k):\n");
  const std::string probe_pattern = "(a:0)->(b:1)";
  WarmStartReport slurp =
      MeasureWarmStart(snap_path, SnapshotIoMode::kRead, probe_pattern);
  WarmStartReport mapped =
      MeasureWarmStart(snap_path, SnapshotIoMode::kMmap, probe_pattern);
  bool modes_ok = slurp.ok != 0 && mapped.ok != 0;
  if (!modes_ok) {
    std::fprintf(stderr, "FAIL: warm-start child did not report\n");
  } else {
    TablePrinter io_table(
        {"mode", "load(s)", "first-query(s)", "count", "peakRSS(MB)",
         "RSS(MB)"});
    char count_buf[32];
    std::snprintf(count_buf, sizeof(count_buf), "%llu",
                  static_cast<unsigned long long>(slurp.count));
    io_table.AddRow({"read (slurp+copy)", FormatSeconds(slurp.load_ms),
                     FormatSeconds(slurp.first_query_ms), count_buf,
                     FormatMb(slurp.vm_hwm_kb), FormatMb(slurp.vm_rss_kb)});
    std::snprintf(count_buf, sizeof(count_buf), "%llu",
                  static_cast<unsigned long long>(mapped.count));
    io_table.AddRow({"mmap (zero-copy)", FormatSeconds(mapped.load_ms),
                     FormatSeconds(mapped.first_query_ms), count_buf,
                     FormatMb(mapped.vm_hwm_kb), FormatMb(mapped.vm_rss_kb)});
    io_table.Print();
    if (gate.Check(probe_pattern, "mmap", CountKind::kHomomorphism,
                   EvalStatus::kOk, mapped.count, slurp.count, kProbeLimit) &&
        slurp.vm_hwm_kb > 0 && mapped.vm_hwm_kb > 0) {
      std::printf("peak RSS: mmap %s MB vs slurp %s MB (%+.1f MB; mapped "
                  "pages are page-cache-backed and shared across daemons)\n",
                  FormatMb(mapped.vm_hwm_kb).c_str(),
                  FormatMb(slurp.vm_hwm_kb).c_str(),
                  (mapped.vm_hwm_kb - slurp.vm_hwm_kb) / 1024.0);
    }
  }

  // --- Equivalence spot check: same counts from both engines. Skipped at
  // large scales: with bs's 5-label alphabet the simulation/RIG cost of the
  // template queries explodes with graph size (hours of CPU, identically on
  // both engines), and round-trip equivalence is already covered
  // exhaustively by tests/test_snapshot.cc.
  if (scale <= 0.25) {
    const std::vector<NamedEngine> engines = {
        GmVariant("cold", *cold_engine), GmVariant("warm", *warm->engine)};
    auto workload = TemplateWorkload(g, {"HQ0", "HQ8"}, QueryVariant::kHybrid,
                                     /*seed=*/17);
    for (const NamedQuery& nq : workload) {
      auto runs = Run(engines, nq.name, nq.query, &gate);
      std::printf("%s: cold %llu, warm %llu occurrence(s)\n", nq.name.c_str(),
                  static_cast<unsigned long long>(
                      runs[0].result.num_occurrences),
                  static_cast<unsigned long long>(
                      runs[1].result.num_occurrences));
    }
  } else {
    std::printf("equivalence spot check skipped at scale %.2f "
                "(covered by test_snapshot)\n", scale);
  }
  std::remove(text_path.c_str());
  std::remove(snap_path.c_str());
  const int gate_code = gate.Finish();
  return modes_ok ? gate_code : 1;
}
