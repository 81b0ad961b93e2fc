// Protocol overhead of the query daemon (server/server.h): end-to-end RPS
// through the Unix-socket frame protocol vs the same workload evaluated
// in-process.
//
// Setup: one engine over a generated bench graph serves (a) directly via
// EvaluateBatch and per-worker contexts — the in-process ceiling — and
// (b) through a QueryServer on a Unix-domain socket with K concurrent
// clients issuing one query per request. Both run the identical query list,
// and the bench cross-checks that every served count equals the in-process
// count (a daemon that is fast but wrong would be worthless).
//
// The gap between (a) and (b) is pure serving overhead: framing, syscalls,
// scheduling — the price of the RDBMS-style "load once, serve repeatedly"
// deployment the snapshot subsystem enables.
//
// A third phase stresses the event-loop core the way the C10K problem
// does: a thousand-plus idle connections parked on the daemon while the
// hot clients pipeline their requests (many in flight per connection)
// and a churn thread opens/closes connections the whole time. The idle
// flood must not cost a single failed round trip, and the accept-to-
// first-byte percentiles under churn come from the server's own stats.
//
// A cache phase replays a Zipfian repeat-heavy workload against a
// delta-armed daemon: a cold pass first-touches every distinct template
// instantiation, a hot pass re-draws them Zipfian so nearly every request
// is a result-cache hit, and a final flood keeps querying while a live
// kRefresh swaps the generation underneath — zero failed round trips
// allowed, and every count must match the old or the new oracle.
//
// A fourth phase measures the multi-tenant catalog: the same daemon core
// serving three distinct graphs from snapshots behind scoped sessions,
// with an LRU cap below the tenant count (so every request may evict),
// a delta-armed default tenant refreshed over the wire, and one unscoped
// client riding along. It reports per-tenant RPS plus the
// catalog's hit/miss/evict counters, and every served count is verified
// against per-tenant in-process evaluation.
//
// Knobs: RIGPM_SCALE scales the graph; RIGPM_SERVER_CLIENTS (default 4)
// sets the concurrent client count; RIGPM_IDLE_CONNS (default 1000)
// sizes the idle flood (0 skips the C10K phase); RIGPM_MULTITENANT=0
// skips the multi-tenant phase.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "query/pattern_parser.h"
#include "server/catalog.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/delta_log.h"
#include "storage/snapshot.h"

using namespace rigpm;
using namespace rigpm::bench;

namespace {

uint32_t ClientsFromEnv() {
  const char* raw = std::getenv("RIGPM_SERVER_CLIENTS");
  if (raw == nullptr) return 4;
  long v = std::strtol(raw, nullptr, 10);
  return v > 0 ? static_cast<uint32_t>(v) : 4;
}

uint32_t IdleConnsFromEnv() {
  const char* raw = std::getenv("RIGPM_IDLE_CONNS");
  if (raw == nullptr) return 1000;
  long v = std::strtol(raw, nullptr, 10);
  return v >= 0 ? static_cast<uint32_t>(v) : 1000;
}

// Lifts the soft RLIMIT_NOFILE toward the hard cap so the idle flood
// (plus the server's own fds) fits. Best effort: if the hard cap is
// still too small the connect loop reports it.
void RaiseNofileLimit(uint64_t want) {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) return;
  if (lim.rlim_cur >= want) return;
  rlimit raised = lim;
  raised.rlim_cur = lim.rlim_max == RLIM_INFINITY
                        ? want
                        : std::min<rlim_t>(lim.rlim_max, want);
  setrlimit(RLIMIT_NOFILE, &raised);
}

}  // namespace

int main() {
  const double scale = DatasetScaleFromEnv();
  const uint32_t num_clients = ClientsFromEnv();
  PrintBenchHeader("Server — socket serving vs in-process evaluation",
                   "scale=" + std::to_string(scale) +
                       " clients=" + std::to_string(num_clients));

  const DatasetSpec& spec = DatasetByName("yt");
  Graph g = MakeDataset(spec, scale);
  std::printf("graph: %s\n\n", g.Summary().c_str());
  GmEngine engine(g);

  // Workload: the template queries the paper serves, repeated so each
  // client has a few dozen requests — enough round trips for the protocol
  // cost to dominate noise.
  auto workload = TemplateWorkload(g, RepresentativeTemplateNames(),
                                   QueryVariant::kHybrid, /*seed=*/17);
  std::vector<PatternQuery> queries;
  std::vector<std::string> query_texts;
  constexpr int kRepeats = 8;
  for (int r = 0; r < kRepeats; ++r) {
    for (const NamedQuery& nq : workload) {
      queries.push_back(nq.query);
      query_texts.push_back(PatternToString(nq.query));
    }
  }
  GmOptions opts;
  opts.limit = MatchLimitFromEnv();

  // --- (a) In-process ceiling: EvaluateBatch with as many workers as the
  // server will have clients.
  GmOptions batch_opts = opts;
  batch_opts.num_threads = num_clients;
  std::vector<GmResult> direct;
  double direct_ms = TimeMs([&] {
    direct = engine.EvaluateBatch(
        std::span<const PatternQuery>(queries), batch_opts);
  });

  // --- (b) Through the daemon: K clients, one connection each, splitting
  // the same query list round-robin.
  server::ServerConfig config;
  config.unix_path = (std::filesystem::temp_directory_path() /
                      ("rigpm_bench_server_" + std::to_string(::getpid()) +
                       ".sock"))
                         .string();
  config.num_workers = num_clients;
  auto catalog = std::make_shared<server::EngineCatalog>();
  catalog->AdoptEngine("default", engine);
  server::QueryServer server(catalog, config);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "cannot start server: %s\n", error.c_str());
    return 1;
  }

  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> transport_failures{0};
  double served_ms = TimeMs([&] {
    std::vector<std::thread> clients;
    clients.reserve(num_clients);
    for (uint32_t c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c] {
        server::QueryClient client;
        std::string cerr;
        if (!client.ConnectUnix(config.unix_path, &cerr)) {
          ++transport_failures;
          return;
        }
        for (size_t i = c; i < query_texts.size(); i += num_clients) {
          server::QueryRequest req;
          req.patterns = {query_texts[i]};
          req.limit = opts.limit;
          auto resp = client.Query(req, &cerr);
          if (!resp.has_value() ||
              resp->status != server::StatusCode::kOk ||
              resp->results.size() != 1) {
            ++transport_failures;
            continue;
          }
          if (resp->results[0].num_occurrences !=
              direct[i].num_occurrences) {
            ++mismatches;
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
  });

  // --- (c) C10K: the identical workload again, but every client pipelines
  // its slice (kPipelineWindow requests in flight per connection)
  // while `idle_conns` connections sit parked on the daemon doing nothing
  // and a churn thread opens/closes short-lived connections throughout.
  const uint32_t idle_conns = IdleConnsFromEnv();
  double c10k_ms = 0.0;
  uint64_t churn_accepts = 0;
  server::StatsResponse c10k_stats{};
  std::atomic<uint64_t> c10k_failures{0};
  std::atomic<uint64_t> c10k_mismatches{0};
  if (idle_conns > 0) {
    RaiseNofileLimit(static_cast<uint64_t>(idle_conns) + 512);
    std::vector<server::QueryClient> idle;
    idle.reserve(idle_conns);
    for (uint32_t i = 0; i < idle_conns; ++i) {
      server::QueryClient holder;
      std::string herr;
      if (!holder.ConnectUnix(config.unix_path, &herr)) {
        std::fprintf(stderr, "idle connect %u/%u failed: %s\n", i + 1,
                     idle_conns, herr.c_str());
        return 1;
      }
      idle.push_back(std::move(holder));
    }

    std::atomic<bool> churn_stop{false};
    std::atomic<uint64_t> churned{0};
    std::thread churner([&] {
      // Accept churn: each iteration is a fresh connection, one ping, and
      // a close — so the accept-to-first-byte percentiles below measure
      // accepts that happen WHILE the loop juggles 1000+ parked fds and
      // the pipelined hot path.
      while (!churn_stop.load(std::memory_order_relaxed)) {
        server::QueryClient c;
        std::string cerr2;
        if (!c.ConnectUnix(config.unix_path, &cerr2) || !c.Ping(&cerr2)) {
          ++c10k_failures;
          return;
        }
        ++churned;
      }
    });

    constexpr size_t kPipelineWindow = 16;
    c10k_ms = TimeMs([&] {
      std::vector<std::thread> hot;
      hot.reserve(num_clients);
      for (uint32_t c = 0; c < num_clients; ++c) {
        hot.emplace_back([&, c] {
          server::QueryClient client;
          std::string cerr2;
          if (!client.ConnectUnix(config.unix_path, &cerr2)) {
            ++c10k_failures;
            return;
          }
          std::vector<size_t> slice;
          for (size_t i = c; i < query_texts.size(); i += num_clients) {
            slice.push_back(i);
          }
          for (size_t start = 0; start < slice.size();
               start += kPipelineWindow) {
            size_t end = std::min(slice.size(), start + kPipelineWindow);
            std::vector<server::QueryRequest> reqs;
            reqs.reserve(end - start);
            for (size_t k = start; k < end; ++k) {
              server::QueryRequest req;
              req.patterns = {query_texts[slice[k]]};
              req.limit = opts.limit;
              reqs.push_back(std::move(req));
            }
            auto resps = client.QueryPipelined(reqs, &cerr2);
            if (!resps.has_value()) {
              c10k_failures += end - start;
              return;
            }
            for (size_t k = start; k < end; ++k) {
              const server::QueryResponse& r = (*resps)[k - start];
              if (r.status != server::StatusCode::kOk ||
                  r.results.size() != 1) {
                ++c10k_failures;
              } else if (r.results[0].num_occurrences !=
                         direct[slice[k]].num_occurrences) {
                ++c10k_mismatches;
              }
            }
          }
        });
      }
      for (std::thread& t : hot) t.join();
    });
    churn_stop.store(true);
    churner.join();
    churn_accepts = churned.load();
    c10k_stats = server.Snapshot();
  }
  server.Stop();

  // --- (d) Result cache: Zipfian repeat traffic against a delta-armed
  // daemon. Unique keys come from re-instantiating the template workload
  // under many seeds so the cold pass has enough first-touches to time.
  std::vector<std::string> rc_texts;
  for (uint64_t seed = 100; seed < 108; ++seed) {
    auto w = TemplateWorkload(g, RepresentativeTemplateNames(),
                              QueryVariant::kHybrid, seed);
    for (const NamedQuery& nq : w) {
      rc_texts.push_back(PatternToString(nq.query));
    }
  }
  std::vector<PatternQuery> rc_queries;
  for (const std::string& text : rc_texts) {
    rc_queries.push_back(*ParsePattern(text));
  }
  std::vector<GmResult> rc_direct = engine.EvaluateBatch(
      std::span<const PatternQuery>(rc_queries), batch_opts);

  const std::string rc_snap = config.unix_path + ".rc.snap";
  const std::string rc_delta = config.unix_path + ".rc.delta";
  if (!SaveEngineSnapshot(engine, rc_snap, &error)) {
    std::fprintf(stderr, "cannot save cache snapshot: %s\n", error.c_str());
    return 1;
  }
  auto rc_info = InspectSnapshot(rc_snap, &error);
  if (!rc_info.has_value()) {
    std::fprintf(stderr, "cannot inspect cache snapshot: %s\n",
                 error.c_str());
    return 1;
  }
  auto rc_catalog = std::make_shared<server::EngineCatalog>();
  server::EngineSource rc_source;
  rc_source.snapshot_path = rc_snap;
  rc_source.delta_path = rc_delta;
  if (!rc_catalog->Register("default", rc_source, &error) ||
      rc_catalog->Acquire("", &error) == nullptr) {
    std::fprintf(stderr, "cannot open cache snapshot: %s\n", error.c_str());
    return 1;
  }
  server::ServerConfig rc_config;
  rc_config.unix_path = config.unix_path + ".rc";
  rc_config.num_workers = num_clients;
  server::QueryServer rc_server(rc_catalog, rc_config);
  if (!rc_server.Start(&error)) {
    std::fprintf(stderr, "cannot start cache server: %s\n", error.c_str());
    return 1;
  }

  std::atomic<uint64_t> rc_failures{0};
  std::atomic<uint64_t> rc_mismatches{0};
  constexpr size_t kRcWindow = 16;
  // One pipelined pass over a request-index list, verifying each count
  // against the matching oracle slot.
  auto rc_run = [&](const std::vector<size_t>& picks,
                    const std::vector<GmResult>& oracle) {
    std::vector<std::thread> threads;
    threads.reserve(num_clients);
    for (uint32_t c = 0; c < num_clients; ++c) {
      threads.emplace_back([&, c] {
        server::QueryClient client;
        std::string cerr;
        if (!client.ConnectUnix(rc_config.unix_path, &cerr)) {
          ++rc_failures;
          return;
        }
        std::vector<size_t> slice;
        for (size_t i = c; i < picks.size(); i += num_clients) {
          slice.push_back(picks[i]);
        }
        for (size_t start = 0; start < slice.size(); start += kRcWindow) {
          size_t end = std::min(slice.size(), start + kRcWindow);
          std::vector<server::QueryRequest> reqs;
          reqs.reserve(end - start);
          for (size_t k = start; k < end; ++k) {
            server::QueryRequest req;
            req.patterns = {rc_texts[slice[k]]};
            req.limit = opts.limit;
            reqs.push_back(std::move(req));
          }
          auto resps = client.QueryPipelined(reqs, &cerr);
          if (!resps.has_value()) {
            rc_failures += end - start;
            return;
          }
          for (size_t k = start; k < end; ++k) {
            const server::QueryResponse& r = (*resps)[k - start];
            if (r.status != server::StatusCode::kOk ||
                r.results.size() != 1) {
              ++rc_failures;
            } else if (r.results[0].num_occurrences !=
                       oracle[slice[k]].num_occurrences) {
              ++rc_mismatches;
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  };

  // Cold pass: every distinct query exactly once — all misses.
  std::vector<size_t> cold_picks(rc_texts.size());
  for (size_t i = 0; i < cold_picks.size(); ++i) cold_picks[i] = i;
  double rc_cold_ms = TimeMs([&] { rc_run(cold_picks, rc_direct); });

  // Hot pass: many Zipfian draws over the now-resident keys. The skew is
  // cosmetic — after the cold pass EVERY draw is a hit; it just shapes
  // the LRU traffic the way repeat-heavy dashboards do.
  std::vector<double> zipf_w(rc_texts.size());
  for (size_t i = 0; i < zipf_w.size(); ++i) zipf_w[i] = 1.0 / (i + 1.0);
  std::mt19937 rc_rng(7);
  std::discrete_distribution<size_t> zipf(zipf_w.begin(), zipf_w.end());
  std::vector<size_t> hot_picks(rc_texts.size() * 24);
  for (size_t& p : hot_picks) p = zipf(rc_rng);
  double rc_hot_ms = TimeMs([&] { rc_run(hot_picks, rc_direct); });
  server::StatsResponse rc_warm_stats = rc_server.Snapshot();

  // Invalidation flood: append + kRefresh while clients keep drawing.
  // Counts may legally come from either generation; nothing may fail.
  std::vector<std::pair<NodeId, NodeId>> rc_batch;
  for (size_t i = 0; i < 8; ++i) {
    rc_batch.emplace_back(static_cast<NodeId>((i * 7919u + 5) % g.NumNodes()),
                          static_cast<NodeId>((i * 104729u + 13) %
                                              g.NumNodes()));
  }
  Graph rc_merged = ApplyEdgesToGraph(g, rc_batch);
  GmEngine rc_engine2(rc_merged);
  std::vector<GmResult> rc_direct2 = rc_engine2.EvaluateBatch(
      std::span<const PatternQuery>(rc_queries), batch_opts);
  {
    auto writer = DeltaWriter::Open(rc_delta, rc_info->stored_checksum,
                                    g.NumNodes(), &error);
    if (writer == nullptr || !writer->Append(rc_batch, &error)) {
      std::fprintf(stderr, "cannot write cache delta: %s\n", error.c_str());
      return 1;
    }
  }
  std::atomic<uint64_t> rc_refresh_failures{0};
  {
    std::vector<std::thread> flood;
    flood.reserve(num_clients);
    std::atomic<bool> go{false};
    for (uint32_t c = 0; c < num_clients; ++c) {
      flood.emplace_back([&, c] {
        server::QueryClient client;
        std::string cerr;
        if (!client.ConnectUnix(rc_config.unix_path, &cerr)) {
          ++rc_refresh_failures;
          return;
        }
        std::mt19937 rng(100 + c);
        std::discrete_distribution<size_t> draw(zipf_w.begin(),
                                                zipf_w.end());
        while (!go.load(std::memory_order_relaxed)) {
          const size_t pick = draw(rng);
          server::QueryRequest req;
          req.patterns = {rc_texts[pick]};
          req.limit = opts.limit;
          auto resp = client.Query(req, &cerr);
          if (!resp.has_value() ||
              resp->status != server::StatusCode::kOk ||
              resp->results.size() != 1) {
            ++rc_refresh_failures;
            return;
          }
          const uint64_t got = resp->results[0].num_occurrences;
          if (got != rc_direct[pick].num_occurrences &&
              got != rc_direct2[pick].num_occurrences) {
            ++rc_mismatches;
          }
        }
      });
    }
    server::QueryClient admin;
    std::string aerr;
    if (!admin.ConnectUnix(rc_config.unix_path, &aerr)) {
      std::fprintf(stderr, "cache admin connect failed: %s\n", aerr.c_str());
      return 1;
    }
    auto refreshed = admin.Refresh(&aerr);
    if (!refreshed.has_value() ||
        refreshed->status != server::StatusCode::kOk) {
      ++rc_refresh_failures;
    }
    go.store(true);
    for (std::thread& t : flood) t.join();
    // Post-swap steady state: the whole key set must now answer from the
    // NEW generation (a stale hit would still show an old count).
    rc_run(cold_picks, rc_direct2);
  }
  server::StatsResponse rc_stats = rc_server.Snapshot();
  rc_server.Stop();
  std::remove(rc_snap.c_str());
  std::remove(rc_delta.c_str());

  // --- (e) Multi-tenant catalog: three snapshot tenants behind one daemon,
  // an LRU cap of 2 (below the tenant count, so the scoped flood churns
  // evictions), scoped clients pinned per tenant plus one unscoped client
  // on the default, and a per-tenant refresh over the wire.
  const char* mt_env = std::getenv("RIGPM_MULTITENANT");
  const bool run_multitenant = mt_env == nullptr || std::strtol(
      mt_env, nullptr, 10) != 0;
  double mt_ms = 0.0;
  std::atomic<uint64_t> mt_failures{0};
  std::atomic<uint64_t> mt_mismatches{0};
  uint64_t mt_tenant_queries[3] = {0, 0, 0};
  uint64_t mt_legacy_queries = 0;
  server::StatsResponse mt_stats;
  uint64_t mt_refresh_records = 0;
  if (run_multitenant) {
    // Tenants: the bench graph itself plus two structural variants with
    // deterministic extra edges — distinct graphs, distinct counts, so a
    // misrouted request cannot return the right number by accident.
    auto variant_edges = [&](uint32_t salt, size_t count) {
      std::vector<std::pair<NodeId, NodeId>> edges;
      edges.reserve(count);
      const NodeId n_nodes = g.NumNodes();
      for (size_t i = 0; i < count; ++i) {
        edges.emplace_back(
            static_cast<NodeId>((i * 7919u + salt) % n_nodes),
            static_cast<NodeId>((i * 104729u + salt * 31u + 1) % n_nodes));
      }
      return edges;
    };
    // The default tenant serves base+delta: its log carries `t0_batch`
    // before the daemon opens it, so the lazy open replays the log and the
    // in-process oracle below must use the merged graph.
    const auto t0_batch = variant_edges(3, 4);
    Graph g0m = ApplyEdgesToGraph(g, t0_batch);
    Graph g1 = ApplyEdgesToGraph(g, variant_edges(101, 16));
    Graph g2 = ApplyEdgesToGraph(g, variant_edges(977, 16));
    GmEngine e0m(g0m), e1(g1), e2(g2);
    std::vector<GmResult> mt_direct[3];
    const GmEngine* tenant_engines[3] = {&e0m, &e1, &e2};
    for (int t = 0; t < 3; ++t) {
      mt_direct[t] = tenant_engines[t]->EvaluateBatch(
          std::span<const PatternQuery>(queries), batch_opts);
    }

    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("rigpm_bench_mt_" + std::to_string(::getpid())))
            .string();
    const std::string snaps[3] = {dir + "_0.snap", dir + "_1.snap",
                                  dir + "_2.snap"};
    const std::string t0_delta = dir + "_0.delta";
    const GmEngine* base_engines[3] = {&engine, &e1, &e2};
    for (int t = 0; t < 3; ++t) {
      if (!SaveEngineSnapshot(*base_engines[t], snaps[t], &error)) {
        std::fprintf(stderr, "cannot save tenant snapshot: %s\n",
                     error.c_str());
        return 1;
      }
    }
    auto info0 = InspectSnapshot(snaps[0], &error);
    if (!info0.has_value()) {
      std::fprintf(stderr, "cannot inspect tenant snapshot: %s\n",
                   error.c_str());
      return 1;
    }
    {
      auto writer = DeltaWriter::Open(t0_delta, info0->stored_checksum,
                                      g.NumNodes(), &error);
      if (writer == nullptr || !writer->Append(t0_batch, &error)) {
        std::fprintf(stderr, "cannot write tenant delta: %s\n",
                     error.c_str());
        return 1;
      }
    }

    const char* tenant_ids[3] = {"t0", "t1", "t2"};
    auto catalog = std::make_shared<server::EngineCatalog>(
        /*max_engines=*/2);
    for (int t = 0; t < 3; ++t) {
      server::EngineSource source;
      source.snapshot_path = snaps[t];
      if (t == 0) source.delta_path = t0_delta;
      if (!catalog->Register(tenant_ids[t], source, &error)) {
        std::fprintf(stderr, "cannot register tenant: %s\n", error.c_str());
        return 1;
      }
    }
    server::ServerConfig mt_config;
    mt_config.unix_path = config.unix_path + ".mt";
    mt_config.num_workers = num_clients;
    server::QueryServer mt_server(catalog, mt_config);
    if (!mt_server.Start(&error)) {
      std::fprintf(stderr, "cannot start multi-tenant server: %s\n",
                   error.c_str());
      return 1;
    }

    std::atomic<uint64_t> per_tenant[3]{};
    std::atomic<uint64_t> legacy_served{0};
    mt_ms = TimeMs([&] {
      std::vector<std::thread> scoped;
      for (uint32_t c = 0; c < num_clients; ++c) {
        scoped.emplace_back([&, c] {
          const int tenant = static_cast<int>(c % 3);
          server::QueryClient client;
          std::string cerr;
          if (!client.ConnectUnix(mt_config.unix_path, &cerr)) {
            ++mt_failures;
            return;
          }
          client.SetGraph(tenant_ids[tenant]);
          for (size_t i = c; i < query_texts.size(); i += num_clients) {
            server::QueryRequest req;
            req.patterns = {query_texts[i]};
            req.limit = opts.limit;
            auto resp = client.Query(req, &cerr);
            if (!resp.has_value() ||
                resp->status != server::StatusCode::kOk ||
                resp->results.size() != 1) {
              ++mt_failures;
              continue;
            }
            per_tenant[tenant].fetch_add(1, std::memory_order_relaxed);
            if (resp->results[0].num_occurrences !=
                mt_direct[tenant][i].num_occurrences) {
              ++mt_mismatches;
            }
          }
        });
      }
      // The unscoped rider: an empty graph id, served from the default
      // tenant (t0, base+delta).
      scoped.emplace_back([&] {
        server::QueryClient client;
        std::string cerr;
        if (!client.ConnectUnix(mt_config.unix_path, &cerr)) {
          ++mt_failures;
          return;
        }
        for (size_t i = 0; i < query_texts.size(); i += 8) {
          server::QueryRequest req;
          req.patterns = {query_texts[i]};
          req.limit = opts.limit;
          auto resp = client.Query(req, &cerr);
          if (!resp.has_value() ||
              resp->status != server::StatusCode::kOk ||
              resp->results.size() != 1) {
            ++mt_failures;
            continue;
          }
          legacy_served.fetch_add(1, std::memory_order_relaxed);
          if (resp->results[0].num_occurrences !=
              mt_direct[0][i].num_occurrences) {
            ++mt_mismatches;
          }
        }
      });
      for (std::thread& t : scoped) t.join();
    });
    for (int t = 0; t < 3; ++t) mt_tenant_queries[t] = per_tenant[t].load();
    mt_legacy_queries = legacy_served.load();

    // Per-tenant refresh over the wire: grow t0's log and replay it live.
    {
      auto writer = DeltaWriter::Open(t0_delta, info0->stored_checksum,
                                      g.NumNodes(), &error);
      if (writer == nullptr ||
          !writer->Append(variant_edges(7, 2), &error)) {
        std::fprintf(stderr, "cannot grow tenant delta: %s\n",
                     error.c_str());
        return 1;
      }
    }
    server::QueryClient admin;
    std::string aerr;
    if (!admin.ConnectUnix(mt_config.unix_path, &aerr)) {
      std::fprintf(stderr, "admin connect failed: %s\n", aerr.c_str());
      return 1;
    }
    admin.SetGraph("t0");
    auto refreshed = admin.Refresh(&aerr);
    if (!refreshed.has_value() ||
        refreshed->status != server::StatusCode::kOk) {
      ++mt_failures;
    } else {
      mt_refresh_records = refreshed->records_applied;
    }
    auto wire_stats = admin.Stats(&aerr);
    if (wire_stats.has_value()) {
      mt_stats = *wire_stats;
    } else {
      ++mt_failures;
    }
    mt_server.Stop();
    for (const std::string& path : snaps) std::remove(path.c_str());
    std::remove(t0_delta.c_str());
  }

  const double n = static_cast<double>(queries.size());
  const double direct_rps = n / (direct_ms / 1000.0);
  const double served_rps = n / (served_ms / 1000.0);
  TablePrinter table({"path", "queries", "time(s)", "RPS"});
  char buf[3][32];
  std::snprintf(buf[0], sizeof(buf[0]), "%zu", queries.size());
  std::snprintf(buf[1], sizeof(buf[1]), "%.0f", direct_rps);
  table.AddRow({"in-process EvaluateBatch", buf[0], FormatSeconds(direct_ms),
                buf[1]});
  std::snprintf(buf[2], sizeof(buf[2]), "%.0f", served_rps);
  table.AddRow({"daemon (unix socket)", buf[0], FormatSeconds(served_ms),
                buf[2]});
  if (idle_conns > 0) {
    const double c10k_rps = n / (c10k_ms / 1000.0);
    char crow[2][32];
    std::snprintf(crow[0], sizeof(crow[0]), "%zu", queries.size());
    std::snprintf(crow[1], sizeof(crow[1]), "%.0f", c10k_rps);
    table.AddRow({"daemon pipelined + idle flood", crow[0],
                  FormatSeconds(c10k_ms), crow[1]});
  }
  table.Print();
  std::printf("\nprotocol overhead: %.1f%% RPS (%.3f ms per request)\n",
              direct_rps > 0 ? 100.0 * (1.0 - served_rps / direct_rps) : 0.0,
              (served_ms - direct_ms) / n);
  if (idle_conns > 0) {
    std::printf("c10k: %u idle connection(s) parked, %llu churn accept(s); "
                "accept-to-first-byte p50 %.2f ms, p99 %.2f ms\n",
                idle_conns,
                static_cast<unsigned long long>(churn_accepts),
                c10k_stats.accept_p50_ms, c10k_stats.accept_p99_ms);
    std::printf("c10k flushes: %llu (%llu frame(s) flushed — >1 per flush "
                "means the gather writes coalesced)\n",
                static_cast<unsigned long long>(c10k_stats.flushes),
                static_cast<unsigned long long>(c10k_stats.frames_flushed));
  }

  {
    const double rc_cold_rps =
        rc_texts.size() / (rc_cold_ms / 1000.0);
    const double rc_hot_rps = hot_picks.size() / (rc_hot_ms / 1000.0);
    std::printf("\nresult cache phase (%zu distinct queries, Zipfian "
                "repeats):\n", rc_texts.size());
    TablePrinter rc_table({"pass", "requests", "time(s)", "RPS"});
    char rc_buf[4][32];
    std::snprintf(rc_buf[0], sizeof(rc_buf[0]), "%zu", rc_texts.size());
    std::snprintf(rc_buf[1], sizeof(rc_buf[1]), "%.0f", rc_cold_rps);
    rc_table.AddRow({"cold (all misses)", rc_buf[0],
                     FormatSeconds(rc_cold_ms), rc_buf[1]});
    std::snprintf(rc_buf[2], sizeof(rc_buf[2]), "%zu", hot_picks.size());
    std::snprintf(rc_buf[3], sizeof(rc_buf[3]), "%.0f", rc_hot_rps);
    rc_table.AddRow({"hot (cache hits)", rc_buf[2],
                     FormatSeconds(rc_hot_ms), rc_buf[3]});
    rc_table.Print();
    std::printf("cache speedup: %.1fx hit RPS over cold; warm pass: "
                "%llu hit(s), %llu miss(es)\n",
                rc_cold_rps > 0 ? rc_hot_rps / rc_cold_rps : 0.0,
                static_cast<unsigned long long>(rc_warm_stats.cache_hits),
                static_cast<unsigned long long>(rc_warm_stats.cache_misses));
    std::printf("live refresh: generation swapped mid-flood with %llu "
                "failed round trip(s); final counts match the new graph "
                "(%llu total hit(s), %llu miss(es), %llu entry(ies), "
                "%.1f MB cached)\n",
                static_cast<unsigned long long>(rc_refresh_failures.load()),
                static_cast<unsigned long long>(rc_stats.cache_hits),
                static_cast<unsigned long long>(rc_stats.cache_misses),
                static_cast<unsigned long long>(rc_stats.cache_entries),
                rc_stats.cache_bytes_used / (1024.0 * 1024.0));
  }

  if (run_multitenant) {
    std::printf("\nmulti-tenant phase (3 snapshot tenants, max-engines 2, "
                "%.3f s):\n", mt_ms / 1000.0);
    TablePrinter mt_table({"tenant", "queries", "RPS"});
    const char* mt_rows[4] = {"t0 (scoped, base+delta)", "t1 (scoped)",
                              "t2 (scoped)", "unscoped -> t0"};
    const uint64_t mt_counts[4] = {mt_tenant_queries[0], mt_tenant_queries[1],
                                   mt_tenant_queries[2], mt_legacy_queries};
    for (int t = 0; t < 4; ++t) {
      char qbuf[32], rbuf[32];
      std::snprintf(qbuf, sizeof(qbuf), "%llu",
                    static_cast<unsigned long long>(mt_counts[t]));
      std::snprintf(rbuf, sizeof(rbuf), "%.0f",
                    mt_ms > 0 ? mt_counts[t] / (mt_ms / 1000.0) : 0.0);
      mt_table.AddRow({mt_rows[t], qbuf, rbuf});
    }
    mt_table.Print();
    std::printf("catalog: %llu graph(s), %llu resident, %llu hit(s), "
                "%llu miss(es), %llu eviction(s); refresh applied %llu "
                "record(s) to t0\n",
                static_cast<unsigned long long>(mt_stats.graphs_registered),
                static_cast<unsigned long long>(mt_stats.graphs_resident),
                static_cast<unsigned long long>(mt_stats.catalog_hits),
                static_cast<unsigned long long>(mt_stats.catalog_misses),
                static_cast<unsigned long long>(mt_stats.catalog_evictions),
                static_cast<unsigned long long>(mt_refresh_records));
  }

  // Daemon memory footprint. This bench builds its engine in-process (cold),
  // so the whole graph is private heap; a production daemon loading the same
  // graph via an mmap snapshot keeps the bulk data in a MAP_SHARED mapping
  // instead, so N daemons on one snapshot hold ~N x (RSS - graph) + 1 x
  // graph physical memory (bench_snapshot measures the per-process delta).
  const long rss_kb = ReadProcStatusKb("VmRSS");
  const long hwm_kb = ReadProcStatusKb("VmHWM");
  if (rss_kb >= 0) {
    std::printf("daemon RSS: %.1f MB (peak %.1f MB); graph+index heap "
                "%.1f MB of that\n",
                rss_kb / 1024.0, hwm_kb / 1024.0,
                (g.OwnedHeapBytes() + engine.reach().MemoryBytes()) /
                    (1024.0 * 1024.0));
  }

  if (transport_failures.load() != 0 || mismatches.load() != 0 ||
      c10k_failures.load() != 0 || c10k_mismatches.load() != 0 ||
      rc_failures.load() != 0 || rc_mismatches.load() != 0 ||
      rc_refresh_failures.load() != 0 ||
      mt_failures.load() != 0 || mt_mismatches.load() != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu transport failure(s), %llu count mismatch(es), "
                 "%llu c10k failure(s), %llu c10k mismatch(es), "
                 "%llu cache failure(s), %llu cache mismatch(es), "
                 "%llu refresh-flood failure(s), "
                 "%llu multi-tenant failure(s), %llu multi-tenant "
                 "mismatch(es)\n",
                 static_cast<unsigned long long>(transport_failures.load()),
                 static_cast<unsigned long long>(mismatches.load()),
                 static_cast<unsigned long long>(c10k_failures.load()),
                 static_cast<unsigned long long>(c10k_mismatches.load()),
                 static_cast<unsigned long long>(rc_failures.load()),
                 static_cast<unsigned long long>(rc_mismatches.load()),
                 static_cast<unsigned long long>(
                     rc_refresh_failures.load()),
                 static_cast<unsigned long long>(mt_failures.load()),
                 static_cast<unsigned long long>(mt_mismatches.load()));
    return 1;
  }
  std::printf("served counts identical to in-process evaluation "
              "(%zu queries%s%s)\n", queries.size(),
              idle_conns > 0 ? ", sequential and pipelined" : "",
              run_multitenant ? ", single- and multi-tenant" : "");
  return 0;
}
