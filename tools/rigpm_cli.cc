// rigpm_cli — evaluate hybrid graph pattern queries from the command line.
//
//   rigpm_cli --graph G.txt --pattern "(a:0)->(b:1), (b)=>(c:2)" [flags]
//   rigpm_cli --graph G.txt --pattern "(a:0)=>(b:1)" --engine jm --limit 100
//   rigpm_cli --graph G.txt --batch QUERIES.txt --threads 8
//   rigpm_cli snapshot --graph G.txt --out G.snap
//   rigpm_cli snapshot --inspect G.snap
//   rigpm_cli --load-snapshot G.snap --pattern "(a:0)->(b:1)"
//   rigpm_cli delta append --base G.snap --delta G.delta --edges E.txt
//   rigpm_cli delta replay --base G.snap --delta G.delta --out G2.snap
//   rigpm_cli --load-snapshot G.snap --delta G.delta --pattern "..."
//   rigpm_cli serve --snapshot G.snap --socket /tmp/rigpm.sock
//   rigpm_cli client --socket /tmp/rigpm.sock --pattern "(a:0)->(b:1)"
//
// Subcommands:
//   snapshot          parse --graph, build the BFL engine, and persist both
//                     to --out as a binary snapshot (storage/snapshot.h);
//                     later runs warm-start from it via --load-snapshot.
//                     With --inspect FILE, print the container header of an
//                     existing snapshot (version, kind, payload size,
//                     checksum) without decoding the payload
//   delta             append-only edge updates over a base snapshot
//                     (storage/delta_log.h):
//                       append  --base S --delta D --edges FILE
//                               journal one edge batch (lines "u v") as a
//                               checksummed record; creates D on first use
//                       inspect --delta D
//                               header + per-record summary + chain validity
//                       replay  --base S --delta D [--out S2]
//                               rebuild base+delta; with --out, write the
//                               merged engine snapshot (compaction — the new
//                               snapshot starts a fresh delta lineage)
//   serve             run the query daemon (server/tool_main.h); --delta
//                     FILE arms the kRefresh live-refresh path
//   client            talk to a running daemon: queries, stats, ping,
//                     refresh, shutdown (server/tool_main.h)
//
// Flags:
//   --graph FILE      data graph in the text format of graph_io.h
//   --load-snapshot F warm start: load graph + pre-built reachability index
//                     from a binary engine snapshot instead of --graph
//   --delta FILE      with --load-snapshot: replay the delta log over the
//                     base before evaluating (queries then see base+delta;
//                     the reachability index is rebuilt over the merged
//                     graph)
//   --snapshot-io M   how to load snapshots: mmap (default; zero-copy, the
//                     mapping is shared across processes) or read (one
//                     private buffer). Also settable process-wide via the
//                     RIGPM_SNAPSHOT_IO environment variable
//   --out FILE        snapshot output path (snapshot subcommand)
//   --pattern STR     query in the inline syntax of pattern_parser.h
//   --batch FILE      batch mode: one inline pattern per line ('#' comments
//                     and blank lines skipped), served with EvaluateBatch
//   --engine NAME     gm (default) | jm | tm (the join- and tree-based
//                     baselines, baseline/baseline.h; they print a status)
//   --order NAME      jo (default) | ri | bj           (gm engine)
//   --threads N       --batch only: batch worker count (1 = sequential,
//                     the default; 0 = hardware concurrency)
//   --limit N         stop after N occurrences (default: all; 0 = none)
//   --print N         print the first N occurrences (default 10)
//   --stats           print each phase's time and their sum, then GM's RIG
//                     size or the baseline's counters

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/jm_engine.h"
#include "baseline/tm_engine.h"
#include "engine/gm_engine.h"
#include "graph/graph_io.h"
#include "query/pattern_parser.h"
#include "server/tool_main.h"
#include "storage/delta_log.h"
#include "storage/lineage.h"
#include "storage/snapshot.h"
#include "util/numeric_flag.h"

namespace {

using namespace rigpm;

struct CliArgs {
  std::string graph_path;
  std::string snapshot_path;  // --load-snapshot
  std::string delta_path;     // --delta (overlay for --load-snapshot)
  std::string out_path;       // snapshot subcommand --out
  std::string inspect_path;   // snapshot subcommand --inspect
  SnapshotIoMode io_mode = DefaultSnapshotIoMode();  // --snapshot-io
  std::string pattern;
  std::string batch_path;
  std::string engine = "gm";
  std::string order = "jo";
  std::optional<uint32_t> threads;  // --batch workers
  uint64_t limit = std::numeric_limits<uint64_t>::max();
  uint64_t print = 10;
  bool stats = false;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--graph FILE | --load-snapshot FILE)\n"
               "          (--pattern STR | --batch FILE)\n"
               "          [--engine gm|jm|tm] [--order jo|ri|bj]\n"
               "          [--limit N] [--print N] [--stats]\n"
               "          [--batch FILE --threads N]\n"
               "          [--snapshot-io mmap|read]\n"
               "       %s snapshot (--graph FILE --out FILE "
               "| --inspect FILE)\n"
               "       %s delta (append|inspect|replay) ...\n"
               "       %s serve ...   (see serve --help)\n"
               "       %s client ...  (see client --help)\n",
               argv0, argv0, argv0, argv0, argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, int first, CliArgs* out) {
  for (int i = first; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--graph") == 0) {
      const char* v = need_value("--graph");
      if (v == nullptr) return false;
      out->graph_path = v;
    } else if (std::strcmp(argv[i], "--load-snapshot") == 0) {
      const char* v = need_value("--load-snapshot");
      if (v == nullptr) return false;
      out->snapshot_path = v;
    } else if (std::strcmp(argv[i], "--delta") == 0) {
      const char* v = need_value("--delta");
      if (v == nullptr) return false;
      out->delta_path = v;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      const char* v = need_value("--out");
      if (v == nullptr) return false;
      out->out_path = v;
    } else if (std::strcmp(argv[i], "--inspect") == 0) {
      const char* v = need_value("--inspect");
      if (v == nullptr) return false;
      out->inspect_path = v;
    } else if (std::strcmp(argv[i], "--snapshot-io") == 0) {
      const char* v = need_value("--snapshot-io");
      if (v == nullptr) return false;
      if (!ParseSnapshotIoMode(v, &out->io_mode)) {
        std::fprintf(stderr, "--snapshot-io must be mmap or read (got %s)\n",
                     v);
        return false;
      }
    } else if (std::strcmp(argv[i], "--pattern") == 0) {
      const char* v = need_value("--pattern");
      if (v == nullptr) return false;
      out->pattern = v;
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      const char* v = need_value("--batch");
      if (v == nullptr) return false;
      out->batch_path = v;
    } else if (std::strcmp(argv[i], "--engine") == 0) {
      const char* v = need_value("--engine");
      if (v == nullptr) return false;
      out->engine = v;
    } else if (std::strcmp(argv[i], "--order") == 0) {
      const char* v = need_value("--order");
      if (v == nullptr) return false;
      out->order = v;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      const char* v = need_value("--threads");
      if (v == nullptr) return false;
      if (!ParseNumericFlag("--threads", v, &out->threads.emplace())) {
        return false;
      }
    } else if (std::strcmp(argv[i], "--limit") == 0) {
      const char* v = need_value("--limit");
      if (v == nullptr) return false;
      if (!ParseNumericFlag("--limit", v, &out->limit)) return false;
    } else if (std::strcmp(argv[i], "--print") == 0) {
      const char* v = need_value("--print");
      if (v == nullptr) return false;
      if (!ParseNumericFlag("--print", v, &out->print)) return false;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      out->stats = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

// Required flags for the default (evaluate) mode; the snapshot subcommand
// checks its own.
bool HasEvalInputs(const CliArgs& args) {
  if (!args.graph_path.empty() && !args.snapshot_path.empty()) {
    std::fprintf(stderr,
                 "--graph and --load-snapshot are mutually exclusive\n");
    return false;
  }
  if (args.threads.has_value() && args.batch_path.empty()) {
    std::fprintf(stderr, "--threads applies to --batch only\n");
    return false;
  }
  return (!args.graph_path.empty() || !args.snapshot_path.empty()) &&
         (!args.pattern.empty() || !args.batch_path.empty());
}

void PrintOccurrence(const Occurrence& t) {
  std::printf("(");
  for (size_t i = 0; i < t.size(); ++i) {
    std::printf(i ? " %u" : "%u", t[i]);
  }
  std::printf(")\n");
}

// --stats: each phase an engine ran, with its time, and their sum.
void PrintPipeline(std::span<const PhaseTiming> phases) {
  std::printf("pipeline:");
  for (const PhaseTiming& pt : phases) {
    std::printf(" %s %.2f ms |", pt.name, pt.ms);
  }
  std::printf(" total %.2f ms\n", TotalMs(phases));
}

// snapshot --inspect: the header fields; the payload is never decoded, so
// it works on files that do not load. Delta logs are refused (see
// `delta inspect`).
int RunInspect(const std::string& path) {
  std::string error;
  auto info = InspectSnapshot(path, &error);
  if (!info.has_value()) {
    std::fprintf(stderr, "cannot inspect %s: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf("snapshot:  %s\n", path.c_str());
  std::printf("version:   %u%s\n", info->version,
              info->version == kSnapshotVersion ? " (current)" : "");
  std::printf("kind:      %u (%s)\n", info->kind_value,
              info->kind_value == static_cast<uint32_t>(SnapshotKind::kEngine)
                  ? "engine"
                  : "unknown");
  std::printf("payload:   %llu byte(s)\n",
              static_cast<unsigned long long>(info->payload_size));
  std::printf("file:      %llu byte(s) (24-byte header + payload + 8-byte "
              "checksum)\n",
              static_cast<unsigned long long>(info->file_size));
  std::printf("checksum:  %016llx (stored; not re-verified by inspect)\n",
              static_cast<unsigned long long>(info->stored_checksum));
  return 0;
}

// snapshot subcommand: parse the text graph, build the BFL engine once, and
// persist both so later runs skip the parse and the index build entirely.
int RunSnapshot(const CliArgs& args) {
  if (!args.inspect_path.empty()) {
    return RunInspect(args.inspect_path);
  }
  if (args.graph_path.empty() || args.out_path.empty()) {
    std::fprintf(stderr,
                 "snapshot needs --graph FILE and --out FILE "
                 "(or --inspect FILE)\n");
    return 2;
  }
  std::string error;
  auto t0 = std::chrono::steady_clock::now();
  auto graph = ReadGraphFile(args.graph_path, &error);
  if (!graph.has_value()) {
    std::fprintf(stderr, "cannot read graph: %s\n", error.c_str());
    return 1;
  }
  double parse_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  GmEngine engine(*graph);
  if (!SaveEngineSnapshot(engine, args.out_path, &error)) {
    std::fprintf(stderr, "cannot write snapshot: %s\n", error.c_str());
    return 1;
  }
  std::printf("graph: %s\n", graph->Summary().c_str());
  std::printf("snapshot written to %s (parse %.2f ms, index build %.2f ms "
              "— both skipped on --load-snapshot)\n",
              args.out_path.c_str(), parse_ms, engine.reach_build_ms());
  return 0;
}

// ------------------------------------------------------ delta subcommand

int DeltaUsage() {
  std::fprintf(
      stderr,
      "usage: delta append  --base SNAP --delta FILE --edges FILE\n"
      "       delta inspect --delta FILE\n"
      "       delta replay  --base SNAP --delta FILE [--out SNAP2]\n"
      "       (all verbs accept --snapshot-io mmap|read)\n"
      "  edge files: one op per line — 'src dst' or '+ src dst' adds the\n"
      "  edge, '- src dst' deletes it ('#' comments, blank lines skipped).\n"
      "  append follows the snapshot's compaction lineage (<SNAP>.head)\n"
      "  when the daemon has compacted the pair.\n");
  return 2;
}

// Loads the graph part of a base engine snapshot and reports its stored
// payload checksum — the value delta logs bind to, taken from the same
// reader that decodes the graph. The delta workflow needs only the graph
// (endpoint validation and replay), so the BFL index that follows it is
// never decoded — `delta append` against a big base costs one graph
// decode, not a full engine load.
std::optional<Graph> LoadBaseGraph(const std::string& path,
                                   SnapshotIoMode mode, uint64_t* checksum,
                                   std::string* error) {
  SnapshotReader reader(path, SnapshotKind::kEngine, mode);
  if (!reader.ok()) {
    *error = reader.error();
    return std::nullopt;
  }
  Graph g = Graph::Deserialize(reader.source());
  if (!reader.source().ok()) {
    *error = reader.source().error();
    return std::nullopt;
  }
  *checksum = reader.stored_checksum();
  return g;
}

// Op batch file: one op per line — "src dst" or "+ src dst" adds the
// edge, "- src dst" deletes it, blank-separated with nothing else on the
// line; '#' comments and blank lines skipped.
bool ReadOpFile(const std::string& path, std::vector<DeltaOp>* out,
                std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open edge file " + path;
    return false;
  }
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream words(line);
    std::vector<std::string> fields;
    for (std::string word; words >> word;) fields.push_back(word);
    if (fields.empty() || fields[0][0] == '#') continue;
    DeltaOpKind kind = DeltaOpKind::kAdd;
    if (fields.size() == 3 && (fields[0] == "+" || fields[0] == "-")) {
      if (fields[0] == "-") kind = DeltaOpKind::kDelete;
      fields.erase(fields.begin());
    }
    NodeId src = 0;
    NodeId dst = 0;
    if (fields.size() != 2 || !ParseUnsigned(fields[0], &src) ||
        !ParseUnsigned(fields[1], &dst)) {
      *error = "edge file line " + std::to_string(line_no) +
               " is not '[+|-] src dst'";
      return false;
    }
    out->push_back(DeltaOp{src, dst, kind});
  }
  return true;
}

int RunDelta(int argc, char** argv) {
  if (argc < 3) return DeltaUsage();
  const std::string verb = argv[2];
  std::string base_path, delta_path, edges_path, out_path;
  SnapshotIoMode io_mode = DefaultSnapshotIoMode();
  for (int i = 3; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    const char* v;
    if (std::strcmp(argv[i], "--base") == 0) {
      if ((v = need_value("--base")) == nullptr) return DeltaUsage();
      base_path = v;
    } else if (std::strcmp(argv[i], "--delta") == 0) {
      if ((v = need_value("--delta")) == nullptr) return DeltaUsage();
      delta_path = v;
    } else if (std::strcmp(argv[i], "--edges") == 0) {
      if ((v = need_value("--edges")) == nullptr) return DeltaUsage();
      edges_path = v;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      if ((v = need_value("--out")) == nullptr) return DeltaUsage();
      out_path = v;
    } else if (std::strcmp(argv[i], "--snapshot-io") == 0) {
      if ((v = need_value("--snapshot-io")) == nullptr) return DeltaUsage();
      if (!ParseSnapshotIoMode(v, &io_mode)) {
        std::fprintf(stderr, "--snapshot-io must be mmap or read\n");
        return DeltaUsage();
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return DeltaUsage();
    }
  }
  std::string error;

  if (verb == "append") {
    if (base_path.empty() || delta_path.empty() || edges_path.empty()) {
      return DeltaUsage();
    }
    std::vector<DeltaOp> ops;
    if (!ReadOpFile(edges_path, &ops, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    // The daemon's auto-compaction re-points the (snapshot, delta) pair at
    // a new generation through the <SNAP>.head lineage file — follow it,
    // and RE-resolve after taking the writer flock: a compaction that
    // committed between our resolve and our lock would otherwise get this
    // append written into a log it already folded in and unlinked (the
    // flock pins an inode, not the path). A lock held by the compactor (or
    // another appender) is transient — retry briefly before giving up.
    constexpr int kMaxAttempts = 10;
    for (int attempt = 0;; ++attempt) {
      Lineage lineage;
      if (!ResolveLineage(base_path, delta_path, &lineage, &error)) {
        std::fprintf(stderr, "cannot resolve lineage: %s\n", error.c_str());
        return 1;
      }
      // Appending to an EXISTING log needs only a header-read of the base
      // (the cross-check against the log's own binding); the base GRAPH is
      // decoded only when the log must be created — its header then
      // records the node count, so every later append is O(batch) + the
      // log scan, never O(base). On creation both the checksum and the
      // node count come from the one read that decoded the graph, so a
      // concurrent rename-replace of the base cannot bind mismatched
      // values.
      auto info = InspectSnapshot(lineage.snapshot_path, &error);
      if (!info.has_value()) {
        std::fprintf(stderr, "cannot inspect base: %s\n", error.c_str());
        return 1;
      }
      uint64_t bind_checksum = info->stored_checksum;
      uint32_t base_nodes = 0;
      std::error_code ec;
      const bool log_has_header =
          std::filesystem::exists(lineage.delta_path, ec) &&
          std::filesystem::file_size(lineage.delta_path, ec) > 0;
      if (!log_has_header) {
        // Missing OR zero-length (a crashed first creation): Open will
        // (re)initialize the header, which needs the base's node count.
        auto base = LoadBaseGraph(lineage.snapshot_path, io_mode,
                                  &bind_checksum, &error);
        if (!base.has_value()) {
          std::fprintf(stderr, "cannot load base: %s\n", error.c_str());
          return 1;
        }
        base_nodes = base->NumNodes();
      }
      auto writer = DeltaWriter::Open(lineage.delta_path, bind_checksum,
                                      base_nodes, &error);
      if (writer == nullptr) {
        if (error.find("locked by another delta writer") !=
                std::string::npos &&
            attempt + 1 < kMaxAttempts) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          continue;
        }
        std::fprintf(stderr, "cannot open delta log: %s\n", error.c_str());
        return 1;
      }
      // Lock held — now make sure the lineage did not move underneath us.
      Lineage recheck;
      if (!ResolveLineage(base_path, delta_path, &recheck, &error)) {
        std::fprintf(stderr, "cannot re-resolve lineage: %s\n",
                     error.c_str());
        return 1;
      }
      if (recheck.delta_path != lineage.delta_path) {
        writer.reset();  // stale generation: drop the lock and chase it
        continue;
      }
      // The precondition journaled records rely on: every endpoint exists
      // in the base (AppendOps enforces it too; checking first gives the
      // clearer message without a half-advanced writer).
      if (!ValidateOpEndpoints(ops, writer->base_num_nodes(), &error)) {
        std::fprintf(stderr,
                     "%s — refusing to journal an unreplayable record\n",
                     error.c_str());
        return 1;
      }
      if (!writer->AppendOps(ops, &error)) {
        std::fprintf(stderr, "append failed: %s\n", error.c_str());
        return 1;
      }
      uint64_t deletes = 0;
      for (const DeltaOp& op : ops) {
        if (op.kind == DeltaOpKind::kDelete) ++deletes;
      }
      std::printf("appended record %llu (%zu op(s), %llu delete(s)) to %s\n",
                  static_cast<unsigned long long>(writer->record_count()),
                  ops.size(), static_cast<unsigned long long>(deletes),
                  lineage.delta_path.c_str());
      return 0;
    }
  }

  if (verb == "inspect") {
    if (delta_path.empty()) return DeltaUsage();
    DeltaReader reader(delta_path, io_mode);
    if (!reader.ok()) {
      std::fprintf(stderr, "cannot inspect %s: %s\n", delta_path.c_str(),
                   reader.error().c_str());
      return 1;
    }
    std::printf("delta log: %s (format version %u)\n", delta_path.c_str(),
                kDeltaFormatOps);
    std::printf("base:      %016llx (stored checksum of the base snapshot), "
                "%u node(s)\n",
                static_cast<unsigned long long>(reader.base_checksum()),
                reader.base_num_nodes());
    DeltaRecord rec;
    uint64_t total_adds = 0;
    uint64_t total_deletes = 0;
    while (reader.Next(&rec)) {
      const uint64_t deletes = rec.delete_count();
      const uint64_t adds = rec.ops.size() - deletes;
      std::printf("record %llu: %zu op(s) (%llu add(s), %llu delete(s))\n",
                  static_cast<unsigned long long>(rec.seqno), rec.ops.size(),
                  static_cast<unsigned long long>(adds),
                  static_cast<unsigned long long>(deletes));
      total_adds += adds;
      total_deletes += deletes;
    }
    std::printf("records:   %llu (%llu op(s) total: %llu add(s), "
                "%llu delete(s))\n",
                static_cast<unsigned long long>(reader.records_read()),
                static_cast<unsigned long long>(total_adds + total_deletes),
                static_cast<unsigned long long>(total_adds),
                static_cast<unsigned long long>(total_deletes));
    if (!reader.truncated()) {
      std::printf("chain:     valid\n");
      return 0;
    }
    if (reader.tail_torn()) {
      std::printf("chain:     TORN TAIL after record %llu (%s) — a crashed, "
                  "never-acknowledged append; the valid prefix is complete "
                  "and the next append recovers the file\n",
                  static_cast<unsigned long long>(reader.records_read()),
                  reader.tail_error().c_str());
      return 0;
    }
    std::printf("chain:     CORRUPT after record %llu (%s) — acknowledged "
                "data is damaged; records past this point are NOT "
                "recoverable from this file\n",
                static_cast<unsigned long long>(reader.records_read()),
                reader.tail_error().c_str());
    return 1;
  }

  if (verb == "replay") {
    if (base_path.empty() || delta_path.empty()) return DeltaUsage();
    uint64_t base_checksum = 0;
    auto base = LoadBaseGraph(base_path, io_mode, &base_checksum, &error);
    if (!base.has_value()) {
      std::fprintf(stderr, "cannot load base: %s\n", error.c_str());
      return 1;
    }
    // The same reader every load and refresh uses: a wrong base and
    // corruption of acknowledged records are refused — producing output
    // (or worse, a compacted snapshot the operator then treats as
    // complete) from the valid prefix would silently lose the rest.
    DeltaRead read = ReadDeltaSince(delta_path, io_mode, base_checksum,
                                    base->NumNodes());
    if (!read.ok) {
      std::fprintf(stderr, "replay refused: %s\n", read.error.c_str());
      return 1;
    }
    const ReplayStats& stats = read.stats;
    const Graph merged = ApplyDeltaOps(*base, read.ops);
    std::printf("base:   %s\n", base->Summary().c_str());
    std::printf("replay: %llu record(s), %llu op(s) (%llu delete(s))%s\n",
                static_cast<unsigned long long>(stats.records_applied),
                static_cast<unsigned long long>(stats.edges_in_records),
                static_cast<unsigned long long>(stats.delete_ops),
                read.torn_tail ? " (torn, never-acknowledged tail skipped)"
                               : "");
    std::printf("merged: %s\n", merged.Summary().c_str());
    if (!out_path.empty()) {
      // Compaction-by-resnapshot: the merged graph becomes a new base with
      // its own checksum; existing delta logs do NOT apply to it — start a
      // fresh log bound to the new snapshot.
      GmEngine engine(merged);
      if (!SaveEngineSnapshot(engine, out_path, &error)) {
        std::fprintf(stderr, "cannot write snapshot: %s\n", error.c_str());
        return 1;
      }
      std::printf("compacted snapshot written to %s (index build %.2f ms; "
                  "start a new delta log against it)\n",
                  out_path.c_str(), engine.reach_build_ms());
    }
    return 0;
  }

  std::fprintf(stderr, "unknown delta verb %s\n", verb.c_str());
  return DeltaUsage();
}

// Batch mode: every line of the file is an inline pattern; the whole batch
// is served through GmEngine::EvaluateBatch with --threads workers.
int RunBatch(const Graph& graph, GmEngine* warm_engine, const CliArgs& args) {
  if (args.engine != "gm") {
    std::fprintf(stderr, "--batch only supports --engine gm (got %s)\n",
                 args.engine.c_str());
    return 2;
  }
  std::ifstream in(args.batch_path);
  if (!in) {
    std::fprintf(stderr, "cannot open batch file %s\n",
                 args.batch_path.c_str());
    return 1;
  }
  std::vector<PatternQuery> queries;
  std::string line, error;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    auto q = ParsePattern(line, &error);
    if (!q.has_value()) {
      std::fprintf(stderr, "batch line %zu: cannot parse pattern: %s\n",
                   line_no, error.c_str());
      return 1;
    }
    if (!q->IsConnected()) {
      std::fprintf(stderr, "batch line %zu: query must be connected\n",
                   line_no);
      return 1;
    }
    queries.push_back(std::move(*q));
  }
  if (queries.empty()) {
    std::fprintf(stderr, "batch file has no queries\n");
    return 1;
  }

  std::optional<GmEngine> cold_engine;
  if (warm_engine == nullptr) cold_engine.emplace(graph);
  GmEngine& engine = warm_engine != nullptr ? *warm_engine : *cold_engine;
  GmOptions opts;
  opts.limit = args.limit;
  if (args.order == "ri") opts.order = OrderStrategy::kRI;
  if (args.order == "bj") opts.order = OrderStrategy::kBJ;
  opts.num_threads = args.threads.value_or(1);

  auto t0 = std::chrono::steady_clock::now();
  std::vector<GmResult> results = engine.EvaluateBatch(queries, opts);
  double batch_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

  uint64_t total = 0;
  double serial_ms = 0.0;
  for (size_t i = 0; i < results.size(); ++i) {
    total += results[i].num_occurrences;
    serial_ms += results[i].TotalMs();
    std::printf("query %zu: %llu occurrence(s)%s", i,
                static_cast<unsigned long long>(results[i].num_occurrences),
                results[i].hit_limit ? " (limit reached)" : "");
    if (args.stats) {
      std::printf("  [matching %.2f ms, enumerate %.2f ms]",
                  results[i].MatchingMs(), results[i].PhaseMs("Enumerate"));
    }
    std::printf("\n");
  }
  std::printf("batch: %zu query(ies), %llu occurrence(s) in %.2f ms wall "
              "(%.2f ms summed per-query work)\n",
              queries.size(), static_cast<unsigned long long>(total),
              batch_ms, serial_ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (argc > 1 && std::strcmp(argv[1], "snapshot") == 0) {
    if (!ParseArgs(argc, argv, 2, &args)) return Usage(argv[0]);
    return RunSnapshot(args);
  }
  if (argc > 1 && std::strcmp(argv[1], "delta") == 0) {
    return RunDelta(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "serve") == 0) {
    return server::ServeToolMain(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "client") == 0) {
    return server::ClientToolMain(argc, argv);
  }
  if (!ParseArgs(argc, argv, 1, &args) || !HasEvalInputs(args)) {
    return Usage(argv[0]);
  }

  std::string error;
  std::optional<Graph> parsed_graph;
  WarmEngine warm;
  const Graph* graph = nullptr;
  if (!args.snapshot_path.empty()) {
    // The overlay (when --delta is given) lives in LoadEngineSnapshot now:
    // records replay over the base and the index is rebuilt over the merged
    // graph — the cold-rebuild twin of the daemon's kRefresh path.
    auto loaded = LoadEngineSnapshot(
        args.snapshot_path,
        {.io_mode = args.io_mode, .delta_path = args.delta_path}, &error);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "cannot load snapshot: %s\n", error.c_str());
      return 1;
    }
    warm = std::move(*loaded);
    graph = warm.graph.get();
    std::printf("snapshot: %s (warm start via %s, index build skipped)\n",
                args.snapshot_path.c_str(),
                args.io_mode == SnapshotIoMode::kMmap ? "mmap" : "read");
    if (!args.delta_path.empty()) {
      if (warm.applied_seqno == 0) {
        // Empty (or fully-compacted-away) log: the snapshot's prebuilt
        // index is already exactly right — the warm start stayed warm.
        std::printf("delta: %s (no records to replay)\n",
                    args.delta_path.c_str());
      } else {
        std::printf("delta: %s (replayed through seqno %llu; "
                    "index rebuilt in %.2f ms)\n",
                    args.delta_path.c_str(),
                    static_cast<unsigned long long>(warm.applied_seqno),
                    warm.engine->reach_build_ms());
      }
    }
  } else {
    if (!args.delta_path.empty()) {
      std::fprintf(stderr, "--delta requires --load-snapshot\n");
      return 1;
    }
    parsed_graph = ReadGraphFile(args.graph_path, &error);
    if (!parsed_graph.has_value()) {
      std::fprintf(stderr, "cannot read graph: %s\n", error.c_str());
      return 1;
    }
    graph = &*parsed_graph;
  }
  std::printf("graph: %s\n", graph->Summary().c_str());

  if (!args.batch_path.empty()) {
    return RunBatch(*graph, warm.engine.get(), args);
  }

  std::optional<PatternQuery> query = ParsePattern(args.pattern, &error);
  if (!query.has_value()) {
    std::fprintf(stderr, "cannot parse query: %s\n", error.c_str());
    return 1;
  }
  if (!query->IsConnected()) {
    std::fprintf(stderr, "query must be connected\n");
    return 1;
  }
  std::printf("query: %s  [%s]\n", query->Summary().c_str(),
              PatternToString(*query).c_str());

  uint64_t printed = 0;
  OccurrenceSink sink = [&](const Occurrence& t) {
    if (printed < args.print) {
      PrintOccurrence(t);
      ++printed;
    }
    return true;
  };

  if (args.engine == "gm") {
    std::optional<GmEngine> cold_engine;
    if (warm.engine == nullptr) cold_engine.emplace(*graph);
    GmEngine& engine = warm.engine != nullptr ? *warm.engine : *cold_engine;
    GmOptions opts;
    opts.limit = args.limit;
    if (args.order == "ri") opts.order = OrderStrategy::kRI;
    if (args.order == "bj") opts.order = OrderStrategy::kBJ;
    GmResult r = engine.Evaluate(*query, opts, sink);
    std::printf("%llu occurrence(s)%s\n",
                static_cast<unsigned long long>(r.num_occurrences),
                r.hit_limit ? " (limit reached)" : "");
    if (args.stats) {
      std::printf("reach index build: %.2f ms\n", engine.reach_build_ms());
      PrintPipeline(r.phase_timings);
      std::printf("RIG: %llu nodes, %llu edges (%zu bytes)\n",
                  static_cast<unsigned long long>(r.rig_nodes),
                  static_cast<unsigned long long>(r.rig_edges),
                  r.rig_memory_bytes);
    }
  } else if (args.engine == "jm" || args.engine == "tm") {
    auto reach = BuildReachabilityIndex(*graph, ReachKind::kBfl);
    MatchContext ctx(*graph, *reach);
    const BaselineOptions opts{.limit = args.limit};
    BaselineResult r = args.engine == "jm"
                           ? JmEvaluate(ctx, *query, opts, sink)
                           : TmEvaluate(ctx, *query, opts, sink);
    std::printf("%llu occurrence(s), status=%s\n",
                static_cast<unsigned long long>(r.num_occurrences),
                EvalStatusName(r.status));
    if (args.stats) {
      PrintPipeline(r.phase_timings);
      std::printf("counters:");
      for (const EngineCounter& c : r.counters) {
        std::printf(" %s %llu", c.name,
                    static_cast<unsigned long long>(c.value));
      }
      std::printf("\n");
    }
  } else {
    std::fprintf(stderr, "unknown engine %s\n", args.engine.c_str());
    return 2;
  }
  return 0;
}
