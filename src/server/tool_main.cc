#include "server/tool_main.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph_io.h"
#include "server/client.h"
#include "server/server.h"
#include "util/numeric_flag.h"

namespace rigpm::server {

namespace {

// SIGINT/SIGTERM just raise a flag; the serve main loop notices within its
// sleep slice and drives the graceful QueryServer::Stop() itself (nothing
// async-signal-unsafe happens in the handler).
volatile std::sig_atomic_t g_signal_stop = 0;

void OnStopSignal(int /*signum*/) { g_signal_stop = 1; }

const char* NeedValue(int argc, char** argv, int* i, const char* flag) {
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "%s needs a value\n", flag);
    return nullptr;
  }
  return argv[++(*i)];
}

int ServeUsage() {
  std::fprintf(
      stderr,
      "usage: serve (--snapshot FILE | --graph FILE | --graph "
      "NAME=SNAP[:DELTA] ...)\n"
      "             (--socket PATH | --port N [--host ADDR])\n"
      "             [--delta FILE] [--max-engines N] [--workers N]\n"
      "             [--max-tuples N] [--max-conns N] [--idle-timeout-ms N]\n"
      "             [--no-remote-shutdown] [--snapshot-io mmap|read]\n"
      "             [--cache-bytes N] [--maintenance-interval-ms N]\n"
      "             [--auto-compact-ratio R]\n"
      "  --graph NAME=SNAP[:DELTA] registers one tenant of a multi-graph\n"
      "  daemon (repeatable; the first becomes the default unless\n"
      "  --snapshot/--graph FILE provides one); --max-engines caps resident\n"
      "  engines, evicting least-recently-used (0 = unlimited);\n"
      "  --cache-bytes budgets each tenant's query-result cache\n"
      "  (default 64 MiB, 0 disables).\n"
      "  --maintenance-interval-ms N polls every refreshable tenant's delta\n"
      "  log every N ms and applies new records without client refreshes\n"
      "  (0 = off); --auto-compact-ratio R additionally folds a tenant's\n"
      "  log into a fresh snapshot generation once the log exceeds R x the\n"
      "  base snapshot's size (e.g. 0.5; 0 = off).\n");
  return 2;
}

int ClientUsage() {
  std::fprintf(
      stderr,
      "usage: client (--socket PATH | --host ADDR --port N)\n"
      "              (--pattern STR | --batch FILE | --stats | --ping\n"
      "               | --refresh | --shutdown | --list-graphs\n"
      "               | --idle-hold N [--hold-secs S])\n"
      "              [--graph NAME] [--limit N] [--tuples N]\n"
      "              [--print N] [--pipeline N] [--repeat N]\n"
      "  --repeat re-issues the same query N times on one connection\n"
      "  (composes with --pipeline: N rounds of M pipelined copies) —\n"
      "  repeat-heavy traffic for exercising the server's result cache.\n");
  return 2;
}

/// One `--graph NAME=SNAP[:DELTA]` tenant of a multi-graph daemon. The
/// legacy `--graph FILE` form (no '=') keeps meaning a text graph file.
struct GraphSpec {
  std::string id;
  std::string snapshot;
  std::string delta;
};

bool ParseGraphSpec(const std::string& text, GraphSpec* spec,
                    std::string* error) {
  size_t eq = text.find('=');
  if (eq == 0 || eq == std::string::npos) {
    *error = "--graph tenant spec must be NAME=SNAPSHOT[:DELTA]";
    return false;
  }
  spec->id = text.substr(0, eq);
  std::string paths = text.substr(eq + 1);
  // The first ':' splits snapshot from delta — tenant snapshot paths
  // therefore cannot contain ':' (use the single-tenant flags for those).
  size_t colon = paths.find(':');
  spec->snapshot = paths.substr(0, colon);
  if (colon != std::string::npos) spec->delta = paths.substr(colon + 1);
  if (spec->snapshot.empty()) {
    *error = "--graph " + spec->id + "= needs a snapshot path";
    return false;
  }
  return true;
}

void PrintTuples(const QueryResponse& resp, uint64_t max_print) {
  if (resp.tuple_arity == 0) return;
  uint64_t count = resp.tuples.size() / resp.tuple_arity;
  for (uint64_t i = 0; i < count && i < max_print; ++i) {
    std::printf("(");
    for (uint32_t j = 0; j < resp.tuple_arity; ++j) {
      std::printf(j ? " %u" : "%u", resp.tuples[i * resp.tuple_arity + j]);
    }
    std::printf(")\n");
  }
}

/// One line per catalog tenant of a stats response; with `cache`, each is
/// followed by the tenant's result-cache counters.
void PrintTenantRows(const StatsResponse& stats, bool cache) {
  for (const GraphInfoWire& t : stats.tenants) {
    std::printf("  %s: %s%s, seqno %llu, %llu query(ies)\n", t.id.c_str(),
                t.resident ? "resident" : "cold",
                t.refreshable ? ", refreshable" : "",
                static_cast<unsigned long long>(t.applied_seqno),
                static_cast<unsigned long long>(t.queries));
    if (!cache) continue;
    std::printf("  %s cache: %llu hit(s), %llu miss(es), %llu eviction(s), "
                "%llu entry(ies), %llu byte(s)\n",
                t.id.c_str(), static_cast<unsigned long long>(t.hits),
                static_cast<unsigned long long>(t.misses),
                static_cast<unsigned long long>(t.evictions),
                static_cast<unsigned long long>(t.entries),
                static_cast<unsigned long long>(t.bytes_used));
  }
}

}  // namespace

int ServeToolMain(int argc, char** argv) {
  std::string snapshot_path, graph_path, socket_path, host = "127.0.0.1";
  std::string delta_path;
  std::vector<GraphSpec> tenants;
  uint32_t max_engines = 0;
  uint64_t cache_bytes = kDefaultResultCacheBytes;
  std::optional<uint16_t> port;
  SnapshotIoMode io_mode = DefaultSnapshotIoMode();
  ServerConfig config;
  for (int i = 2; i < argc; ++i) {
    const char* v;
    if (std::strcmp(argv[i], "--snapshot") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--snapshot")) == nullptr)
        return ServeUsage();
      snapshot_path = v;
    } else if (std::strcmp(argv[i], "--delta") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--delta")) == nullptr)
        return ServeUsage();
      delta_path = v;
    } else if (std::strcmp(argv[i], "--snapshot-io") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--snapshot-io")) == nullptr)
        return ServeUsage();
      if (!ParseSnapshotIoMode(v, &io_mode)) {
        std::fprintf(stderr, "--snapshot-io must be mmap or read (got %s)\n",
                     v);
        return ServeUsage();
      }
    } else if (std::strcmp(argv[i], "--graph") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--graph")) == nullptr)
        return ServeUsage();
      if (std::strchr(v, '=') != nullptr) {
        GraphSpec spec;
        std::string spec_error;
        if (!ParseGraphSpec(v, &spec, &spec_error)) {
          std::fprintf(stderr, "%s\n", spec_error.c_str());
          return ServeUsage();
        }
        tenants.push_back(std::move(spec));
      } else {
        graph_path = v;
      }
    } else if (std::strcmp(argv[i], "--max-engines") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--max-engines")) == nullptr)
        return ServeUsage();
      if (!ParseNumericFlag("--max-engines", v, &max_engines))
        return ServeUsage();
    } else if (std::strcmp(argv[i], "--socket") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--socket")) == nullptr)
        return ServeUsage();
      socket_path = v;
    } else if (std::strcmp(argv[i], "--host") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--host")) == nullptr)
        return ServeUsage();
      host = v;
    } else if (std::strcmp(argv[i], "--port") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--port")) == nullptr ||
          !ParseNumericFlag("--port", v, &port.emplace()))
        return ServeUsage();
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--workers")) == nullptr)
        return ServeUsage();
      if (!ParseNumericFlag("--workers", v, &config.num_workers))
        return ServeUsage();
    } else if (std::strcmp(argv[i], "--max-tuples") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--max-tuples")) == nullptr)
        return ServeUsage();
      if (!ParseNumericFlag("--max-tuples", v, &config.max_return_tuples))
        return ServeUsage();
    } else if (std::strcmp(argv[i], "--max-conns") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--max-conns")) == nullptr)
        return ServeUsage();
      if (!ParseNumericFlag("--max-conns", v, &config.max_connections))
        return ServeUsage();
    } else if (std::strcmp(argv[i], "--idle-timeout-ms") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--idle-timeout-ms")) == nullptr)
        return ServeUsage();
      if (!ParseNumericFlag("--idle-timeout-ms", v, &config.idle_timeout_ms))
        return ServeUsage();
    } else if (std::strcmp(argv[i], "--cache-bytes") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--cache-bytes")) == nullptr)
        return ServeUsage();
      if (!ParseNumericFlag("--cache-bytes", v, &cache_bytes))
        return ServeUsage();
    } else if (std::strcmp(argv[i], "--maintenance-interval-ms") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--maintenance-interval-ms")) ==
          nullptr)
        return ServeUsage();
      if (!ParseNumericFlag("--maintenance-interval-ms", v,
                            &config.maintenance_interval_ms))
        return ServeUsage();
    } else if (std::strcmp(argv[i], "--auto-compact-ratio") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--auto-compact-ratio")) == nullptr)
        return ServeUsage();
      if (!ParseNumericFlag("--auto-compact-ratio", v,
                            &config.auto_compact_ratio))
        return ServeUsage();
    } else if (std::strcmp(argv[i], "--no-remote-shutdown") == 0) {
      config.allow_remote_shutdown = false;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return ServeUsage();
    }
  }
  if (!snapshot_path.empty() && !graph_path.empty()) {
    std::fprintf(stderr,
                 "serve needs at most one of --snapshot and --graph FILE\n");
    return ServeUsage();
  }
  if (snapshot_path.empty() && graph_path.empty() && tenants.empty()) {
    std::fprintf(stderr,
                 "serve needs --snapshot, --graph FILE, or --graph "
                 "NAME=SNAP[:DELTA]\n");
    return ServeUsage();
  }
  if (socket_path.empty() && !port.has_value()) {
    std::fprintf(stderr, "serve needs --socket PATH or --port N\n");
    return ServeUsage();
  }
  if (!delta_path.empty() && snapshot_path.empty()) {
    // A delta log is bound to a base snapshot checksum; without a snapshot
    // there is nothing to bind the refresh to.
    std::fprintf(stderr, "--delta requires --snapshot\n");
    return ServeUsage();
  }
  if (config.auto_compact_ratio > 0 && config.maintenance_interval_ms == 0) {
    std::fprintf(stderr,
                 "--auto-compact-ratio needs --maintenance-interval-ms (the "
                 "maintenance thread is what triggers compactions)\n");
    return ServeUsage();
  }
  config.unix_path = socket_path;
  config.host = host;
  config.port = port.value_or(0);
  // EngineSource::delta_io stays on its kRead default: --snapshot-io
  // governs how the (immutable, rename-replaced) snapshots are loaded, but
  // delta logs are appended to and tail-truncated in place, where reading
  // through a mapping could SIGBUS (catalog.h).

  // `--snapshot S [--delta D]` is the default tenant of the catalog like
  // any other: registered first, so it serves unaddressed requests, and
  // opened by the fail-fast Acquire below through the same lineage-aware
  // base + full-log replay as every reopen. Restart cost is one
  // deserialization, not a parse + index rebuild (a log holding records
  // adds its replay and one rebuild) — and in mmap mode (the default) an
  // unmodified graph is served straight out of a read-only MAP_SHARED
  // mapping, so N daemons on one snapshot share a single physical copy
  // through the page cache.
  if (!snapshot_path.empty()) {
    tenants.insert(tenants.begin(),
                   GraphSpec{"default", snapshot_path, delta_path});
  }
  std::string error;
  auto catalog = std::make_shared<EngineCatalog>(max_engines);
  // Before any engine opens: the result cache is attached per generation
  // at open/adopt/refresh time with the budget in force right then.
  catalog->set_cache_bytes(cache_bytes);
  std::optional<Graph> parsed_graph;
  std::optional<GmEngine> cold_engine;
  if (!graph_path.empty()) {
    parsed_graph = ReadGraphFile(graph_path, &error);
    if (!parsed_graph.has_value()) {
      std::fprintf(stderr, "cannot read graph: %s\n", error.c_str());
      return 1;
    }
    cold_engine.emplace(*parsed_graph);
    std::printf("graph: %s (cold start, index built in %.2f ms)\n",
                parsed_graph->Summary().c_str(), cold_engine->reach_build_ms());
    catalog->AdoptEngine("default", *cold_engine);
  }
  for (const GraphSpec& spec : tenants) {
    EngineSource source;
    source.snapshot_path = spec.snapshot;
    source.delta_path = spec.delta;
    source.io_mode = io_mode;
    if (!catalog->Register(spec.id, std::move(source), &error)) {
      std::fprintf(stderr, "cannot register graph %s: %s\n", spec.id.c_str(),
                   error.c_str());
      return 1;
    }
    std::printf("graph %s: %s%s%s (lazy open)\n", spec.id.c_str(),
                spec.snapshot.c_str(), spec.delta.empty() ? "" : " + delta ",
                spec.delta.c_str());
  }
  {
    // Fail fast on a broken default source instead of handing every
    // unaddressed client the same open error at query time.
    auto state = catalog->Acquire("", &error);
    if (state == nullptr) {
      std::fprintf(stderr, "cannot open default graph: %s\n", error.c_str());
      return 1;
    }
    std::printf("default graph %s: %s (log position %llu)\n",
                catalog->default_id().c_str(),
                state->engine->graph().Summary().c_str(),
                static_cast<unsigned long long>(state->applied_seqno));
  }

  QueryServer server(catalog, config);
  if (!server.Start(&error)) {
    std::fprintf(stderr, "cannot start server: %s\n", error.c_str());
    return 1;
  }
  std::printf("serving on %s (workers=%u, graphs=%zu, default=%s%s)\n",
              server.endpoint().c_str(), config.num_workers,
              catalog->List().size(), catalog->default_id().c_str(),
              max_engines > 0
                  ? (", max-engines=" + std::to_string(max_engines)).c_str()
                  : "");
  std::fflush(stdout);

  g_signal_stop = 0;
  std::signal(SIGINT, OnStopSignal);
  std::signal(SIGTERM, OnStopSignal);
  while (g_signal_stop == 0 && !server.stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  StatsResponse stats = server.Snapshot();
  std::printf("shutdown: %llu request(s), %llu query(ies), %llu "
              "occurrence(s), %llu error(s) over %.1f s "
              "(p50 %.2f ms, p99 %.2f ms)\n",
              static_cast<unsigned long long>(stats.requests_served),
              static_cast<unsigned long long>(stats.queries_served),
              static_cast<unsigned long long>(stats.occurrences_emitted),
              static_cast<unsigned long long>(stats.errors),
              stats.uptime_ms / 1000.0, stats.latency_p50_ms,
              stats.latency_p99_ms);
  return 0;
}

int ClientToolMain(int argc, char** argv) {
  std::string socket_path, host = "127.0.0.1", batch_path, graph_id;
  std::optional<uint16_t> port;
  bool want_stats = false, want_ping = false, want_shutdown = false;
  bool want_refresh = false, want_list_graphs = false;
  uint64_t print = 10;
  uint64_t pipeline = 0;
  uint64_t repeat = 1;
  uint64_t idle_hold = 0;
  uint64_t hold_secs = 600;
  QueryRequest req;
  for (int i = 2; i < argc; ++i) {
    const char* v;
    if (std::strcmp(argv[i], "--socket") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--socket")) == nullptr)
        return ClientUsage();
      socket_path = v;
    } else if (std::strcmp(argv[i], "--host") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--host")) == nullptr)
        return ClientUsage();
      host = v;
    } else if (std::strcmp(argv[i], "--port") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--port")) == nullptr ||
          !ParseNumericFlag("--port", v, &port.emplace()))
        return ClientUsage();
    } else if (std::strcmp(argv[i], "--graph") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--graph")) == nullptr)
        return ClientUsage();
      graph_id = v;
    } else if (std::strcmp(argv[i], "--pattern") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--pattern")) == nullptr)
        return ClientUsage();
      req.patterns.push_back(v);
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--batch")) == nullptr)
        return ClientUsage();
      batch_path = v;
    } else if (std::strcmp(argv[i], "--limit") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--limit")) == nullptr)
        return ClientUsage();
      if (!ParseNumericFlag("--limit", v, &req.limit)) return ClientUsage();
    } else if (std::strcmp(argv[i], "--tuples") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--tuples")) == nullptr)
        return ClientUsage();
      if (!ParseNumericFlag("--tuples", v, &req.max_return_tuples))
        return ClientUsage();
    } else if (std::strcmp(argv[i], "--print") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--print")) == nullptr)
        return ClientUsage();
      if (!ParseNumericFlag("--print", v, &print)) return ClientUsage();
    } else if (std::strcmp(argv[i], "--pipeline") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--pipeline")) == nullptr)
        return ClientUsage();
      if (!ParseNumericFlag("--pipeline", v, &pipeline)) return ClientUsage();
    } else if (std::strcmp(argv[i], "--repeat") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--repeat")) == nullptr)
        return ClientUsage();
      if (!ParseNumericFlag("--repeat", v, &repeat)) return ClientUsage();
      if (repeat == 0) repeat = 1;
    } else if (std::strcmp(argv[i], "--idle-hold") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--idle-hold")) == nullptr)
        return ClientUsage();
      if (!ParseNumericFlag("--idle-hold", v, &idle_hold))
        return ClientUsage();
    } else if (std::strcmp(argv[i], "--hold-secs") == 0) {
      if ((v = NeedValue(argc, argv, &i, "--hold-secs")) == nullptr)
        return ClientUsage();
      if (!ParseNumericFlag("--hold-secs", v, &hold_secs))
        return ClientUsage();
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      want_stats = true;
    } else if (std::strcmp(argv[i], "--ping") == 0) {
      want_ping = true;
    } else if (std::strcmp(argv[i], "--refresh") == 0) {
      want_refresh = true;
    } else if (std::strcmp(argv[i], "--list-graphs") == 0) {
      want_list_graphs = true;
    } else if (std::strcmp(argv[i], "--shutdown") == 0) {
      want_shutdown = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return ClientUsage();
    }
  }
  if (socket_path.empty() && !port.has_value()) {
    std::fprintf(stderr, "client needs --socket PATH or --port N\n");
    return ClientUsage();
  }
  if (!batch_path.empty()) {
    std::ifstream in(batch_path);
    if (!in) {
      std::fprintf(stderr, "cannot open batch file %s\n", batch_path.c_str());
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      size_t first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos || line[first] == '#') continue;
      req.patterns.push_back(line);
    }
  }
  const bool has_query = !req.patterns.empty();
  if (!has_query && !want_stats && !want_ping && !want_refresh &&
      !want_list_graphs && !want_shutdown && idle_hold == 0) {
    std::fprintf(stderr, "client has nothing to do\n");
    return ClientUsage();
  }
  // Printing a tuple requires the server to echo it.
  if (has_query && req.max_return_tuples == 0 && print > 0) {
    req.max_return_tuples =
        static_cast<uint32_t>(std::min<uint64_t>(print, 1u << 20));
  }

  QueryClient client;
  std::string error;

  // Idle-hold mode: open N connections, announce, and sit on them. The
  // C10K smoke test backgrounds this to prove idle connections cost the
  // server an fd each and nothing else (no worker is parked on them).
  if (idle_hold > 0) {
    std::vector<QueryClient> holders;
    holders.reserve(idle_hold);
    for (uint64_t i = 0; i < idle_hold; ++i) {
      QueryClient holder;
      bool ok = socket_path.empty()
                    ? holder.ConnectTcp(host, *port, &error)
                    : holder.ConnectUnix(socket_path, &error);
      if (!ok) {
        std::fprintf(stderr, "idle-hold connect %llu/%llu failed: %s\n",
                     static_cast<unsigned long long>(i + 1),
                     static_cast<unsigned long long>(idle_hold),
                     error.c_str());
        return 1;
      }
      holders.push_back(std::move(holder));
    }
    std::printf("holding %llu connection(s)\n",
                static_cast<unsigned long long>(idle_hold));
    std::fflush(stdout);
    // Sleep in slices so the harness can SIGKILL us promptly; exiting on
    // our own (timeout) is also fine — the server just reaps the EOFs.
    for (uint64_t slept = 0; slept < hold_secs * 10; ++slept) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return 0;
  }

  bool connected = socket_path.empty()
                       ? client.ConnectTcp(host, *port, &error)
                       : client.ConnectUnix(socket_path, &error);
  if (!connected) {
    std::fprintf(stderr, "cannot connect: %s\n", error.c_str());
    return 1;
  }
  client.SetGraph(graph_id);

  if (want_ping) {
    if (!client.Ping(&error)) {
      std::fprintf(stderr, "ping failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("pong\n");
  }

  if (want_list_graphs) {
    auto stats = client.Stats(&error);
    if (!stats.has_value()) {
      std::fprintf(stderr, "list-graphs failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("graphs: %zu registered (default: %s)\n",
                stats->tenants.size(), stats->default_id.c_str());
    PrintTenantRows(*stats, /*cache=*/false);
  }

  if (want_refresh) {
    auto resp = client.Refresh(&error);
    if (!resp.has_value()) {
      std::fprintf(stderr, "refresh failed: %s\n", error.c_str());
      return 1;
    }
    if (resp->status != StatusCode::kOk) {
      std::fprintf(stderr, "server rejected refresh (%s): %s\n",
                   StatusCodeName(resp->status), resp->error.c_str());
      return 1;
    }
    std::printf("refresh: %llu record(s), %llu edge(s) applied in %.2f ms "
                "(log position %llu%s)\n",
                static_cast<unsigned long long>(resp->records_applied),
                static_cast<unsigned long long>(resp->edges_in_records),
                resp->refresh_ms,
                static_cast<unsigned long long>(resp->last_seqno),
                resp->log_truncated ? "; log has a torn tail" : "");
    std::printf("serving: %llu node(s), %llu edge(s)\n",
                static_cast<unsigned long long>(resp->num_nodes),
                static_cast<unsigned long long>(resp->num_edges));
  }

  // --repeat re-issues the same request N times on this one connection;
  // only the final round is printed so scripted callers still see one
  // occurrence line. With a warm server-side result cache every round
  // after the first should be a hit.
  for (uint64_t round = 0; has_query && round < repeat; ++round) {
    const bool final_round = round + 1 == repeat;
    if (final_round && repeat > 1) {
      std::printf("repeat: %llu round(s) completed\n",
                  static_cast<unsigned long long>(repeat));
    }
    if (pipeline > 1) {
      // Pipelined mode: N copies of the request in flight at once on this
      // one connection, answered out of order and matched back by tag.
      std::vector<QueryRequest> reqs(pipeline, req);
      auto resps = client.QueryPipelined(reqs, &error);
      if (!resps.has_value()) {
        std::fprintf(stderr, "pipelined query failed: %s\n", error.c_str());
        return 1;
      }
      uint64_t ok = 0;
      for (const QueryResponse& r : *resps) {
        if (r.status != StatusCode::kOk) {
          std::fprintf(stderr, "server rejected query (%s): %s\n",
                       StatusCodeName(r.status), r.error.c_str());
          return 1;
        }
        ++ok;
      }
      if (!final_round) continue;
      std::printf("pipeline: %llu request(s) completed\n",
                  static_cast<unsigned long long>(ok));
      // Report the LAST response's counts: if a refresh raced the pipeline,
      // earlier responses may legitimately reflect the older graph.
      const QueryResponse& last = resps->back();
      std::printf("%llu occurrence(s)%s\n",
                  static_cast<unsigned long long>(last.TotalOccurrences()),
                  !last.results.empty() && last.results.back().hit_limit
                      ? " (limit reached)"
                      : "");
    } else {
      auto resp = client.Query(req, &error);
      if (!resp.has_value()) {
        std::fprintf(stderr, "query failed: %s\n", error.c_str());
        return 1;
      }
      if (resp->status != StatusCode::kOk) {
        std::fprintf(stderr, "server rejected query (%s): %s\n",
                     StatusCodeName(resp->status), resp->error.c_str());
        return 1;
      }
      if (!final_round) continue;
      if (resp->results.size() == 1) {
        PrintTuples(*resp, print);
        std::printf("%llu occurrence(s)%s\n",
                    static_cast<unsigned long long>(
                        resp->results[0].num_occurrences),
                    resp->results[0].hit_limit ? " (limit reached)" : "");
      } else {
        for (size_t i = 0; i < resp->results.size(); ++i) {
          std::printf("query %zu: %llu occurrence(s)%s\n", i,
                      static_cast<unsigned long long>(
                          resp->results[i].num_occurrences),
                      resp->results[i].hit_limit ? " (limit reached)" : "");
        }
        std::printf("batch: %zu query(ies), %llu occurrence(s)\n",
                    resp->results.size(),
                    static_cast<unsigned long long>(resp->TotalOccurrences()));
      }
    }
  }

  if (want_stats) {
    auto stats = client.Stats(&error);
    if (!stats.has_value()) {
      std::fprintf(stderr, "stats failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("uptime: %.1f s\n", stats->uptime_ms / 1000.0);
    std::printf("connections: %llu accepted, %llu active\n",
                static_cast<unsigned long long>(stats->connections_accepted),
                static_cast<unsigned long long>(stats->active_connections));
    std::printf("requests: %llu (%llu query(ies), %llu error(s))\n",
                static_cast<unsigned long long>(stats->requests_served),
                static_cast<unsigned long long>(stats->queries_served),
                static_cast<unsigned long long>(stats->errors));
    std::printf("occurrences emitted: %llu\n",
                static_cast<unsigned long long>(stats->occurrences_emitted));
    std::printf("refreshes: %llu\n",
                static_cast<unsigned long long>(stats->refreshes));
    std::printf("maintenance: %llu auto-refresh(es), %llu compaction(s), "
                "%llu byte(s) reclaimed, %llu delete(s) applied, "
                "%llu failure(s)\n",
                static_cast<unsigned long long>(stats->auto_refreshes),
                static_cast<unsigned long long>(stats->auto_compactions),
                static_cast<unsigned long long>(
                    stats->maintenance_bytes_reclaimed),
                static_cast<unsigned long long>(stats->deletes_applied),
                static_cast<unsigned long long>(stats->maintenance_failures));
    std::printf("latency: p50 %.2f ms, p99 %.2f ms\n", stats->latency_p50_ms,
                stats->latency_p99_ms);
    std::printf("dispatch depth: %llu\n",
                static_cast<unsigned long long>(stats->dispatch_depth));
    std::printf("accept-to-first-byte: p50 %.2f ms, p99 %.2f ms\n",
                stats->accept_p50_ms, stats->accept_p99_ms);
    std::printf("flushes: %llu (%llu frame(s) flushed)\n",
                static_cast<unsigned long long>(stats->flushes),
                static_cast<unsigned long long>(stats->frames_flushed));
    std::printf("result cache: %llu hit(s), %llu miss(es), %llu insert(s), "
                "%llu eviction(s), %llu singleflight wait(s), %llu entry(ies), "
                "%llu byte(s)\n",
                static_cast<unsigned long long>(stats->cache_hits),
                static_cast<unsigned long long>(stats->cache_misses),
                static_cast<unsigned long long>(stats->cache_inserts),
                static_cast<unsigned long long>(stats->cache_evictions),
                static_cast<unsigned long long>(
                    stats->cache_singleflight_waits),
                static_cast<unsigned long long>(stats->cache_entries),
                static_cast<unsigned long long>(stats->cache_bytes_used));
    size_t resident = 0;
    for (const GraphInfoWire& t : stats->tenants) resident += t.resident;
    std::printf("catalog: %zu graph(s), %zu resident, %llu hit(s), "
                "%llu miss(es), %llu eviction(s)\n",
                stats->tenants.size(), resident,
                static_cast<unsigned long long>(stats->catalog_hits),
                static_cast<unsigned long long>(stats->catalog_misses),
                static_cast<unsigned long long>(stats->catalog_evictions));
    PrintTenantRows(*stats, /*cache=*/true);
  }

  if (want_shutdown) {
    if (!client.Shutdown(&error)) {
      std::fprintf(stderr, "shutdown failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("server shutting down\n");
  }
  return 0;
}

}  // namespace rigpm::server
