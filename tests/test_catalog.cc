// Multi-tenant catalog tests (server/catalog.h + the scoped protocol of
// server/server.h): catalog unit semantics — lazy opens, LRU eviction with
// in-flight pins, per-tenant refresh — and the served behavior of one
// daemon holding many graphs: scoped counts vs dedicated single-tenant
// daemons, unknown-id rejection, eviction churn under --max-engines 1, an
// LRU order that rejected requests leave alone, unscoped sessions landing
// on the default tenant, and a tenant that cannot open failing alone.

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/gm_engine.h"
#include "query/pattern_parser.h"
#include "server/catalog.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/delta_log.h"
#include "storage/snapshot.h"
#include "test_util.h"

namespace rigpm {
namespace {

using rigpm::testing::PaperExample;
using namespace rigpm::server;

std::string UniquePath() {
  static std::atomic<int> counter{0};
  return (std::filesystem::temp_directory_path() /
          ("rigpm_catalog_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++)))
      .string();
}

constexpr const char* kPaperPattern = "(a:0)->(b:1), (a)->(c:2), (b)=>(c)";

/// Occurrence count from a throwaway in-process engine — the oracle every
/// served count is compared against.
uint64_t ColdCount(const Graph& g, const std::string& pattern) {
  GmEngine cold(g);
  auto q = ParsePattern(pattern);
  EXPECT_TRUE(q.has_value());
  if (!q.has_value()) return ~0ull;
  return static_cast<uint64_t>(cold.EvaluateCollect(*q).size());
}

/// Three distinct graphs persisted as snapshots, each with a (lazily
/// created) delta log path bound to its base checksum — the raw material
/// for both the catalog unit tests and the multi-tenant daemon tests.
class MultiTenantFiles : public ::testing::Test {
 protected:
  static constexpr const char* kIds[3] = {"alpha", "beta", "gamma"};

  struct TenantFiles {
    Graph graph;
    std::string snap, delta;
    uint64_t checksum = 0;
  };

  void SetUp() override {
    Build(0, PaperExample::MakeGraph());
    // Distinct tenants on purpose: extra a->b / a->c edges change the
    // paper query's count differently per graph, so a request routed to
    // the wrong tenant cannot return the right number by accident.
    const std::vector<std::pair<NodeId, NodeId>> beta_extra = {{0, 3},
                                                               {0, 7}};
    const std::vector<std::pair<NodeId, NodeId>> gamma_extra = {
        {1, 4}, {1, 8}, {2, 6}};
    Build(1, ApplyEdgesToGraph(t_[0].graph, beta_extra));
    Build(2, ApplyEdgesToGraph(t_[0].graph, gamma_extra));
    ASSERT_NE(ColdCount(t_[0].graph, kPaperPattern),
              ColdCount(t_[1].graph, kPaperPattern));
    ASSERT_NE(ColdCount(t_[0].graph, kPaperPattern),
              ColdCount(t_[2].graph, kPaperPattern));
  }

  void TearDown() override {
    for (const TenantFiles& t : t_) {
      if (!t.snap.empty()) std::remove(t.snap.c_str());
      if (!t.delta.empty()) std::remove(t.delta.c_str());
    }
  }

  void Build(int i, Graph g) {
    t_[i].graph = std::move(g);
    t_[i].snap = UniquePath() + ".snap";
    t_[i].delta = UniquePath() + ".delta";
    std::string error;
    GmEngine cold(t_[i].graph);
    ASSERT_TRUE(SaveEngineSnapshot(cold, t_[i].snap, &error)) << error;
    auto info = InspectSnapshot(t_[i].snap, &error);
    ASSERT_TRUE(info.has_value()) << error;
    t_[i].checksum = info->stored_checksum;
  }

  EngineSource SourceFor(int i) const {
    EngineSource source;
    source.snapshot_path = t_[i].snap;
    source.delta_path = t_[i].delta;
    return source;
  }

  void AppendTo(int i, const std::vector<std::pair<NodeId, NodeId>>& edges) {
    std::string error;
    auto writer = DeltaWriter::Open(t_[i].delta, t_[i].checksum,
                                    t_[i].graph.NumNodes(), &error);
    ASSERT_NE(writer, nullptr) << error;
    ASSERT_TRUE(writer->Append(edges, &error)) << error;
  }

  TenantFiles t_[3];
};

// --------------------------------------------------------- catalog (unit)

using EngineCatalogTest = MultiTenantFiles;

TEST_F(EngineCatalogTest, RegisterAcquireDefaultsAndErrors) {
  EngineCatalog catalog;
  std::string error;
  ASSERT_TRUE(catalog.Register("alpha", SourceFor(0), &error)) << error;
  ASSERT_TRUE(catalog.Register("beta", SourceFor(1), &error)) << error;

  // Duplicate ids and empty sources are registration-time mistakes.
  EXPECT_FALSE(catalog.Register("alpha", SourceFor(2), &error));
  EXPECT_FALSE(catalog.Register("late", EngineSource{}, &error));

  // The first registration is the default; "" resolves to it.
  EXPECT_EQ(catalog.default_id(), "alpha");
  EXPECT_TRUE(catalog.Has("beta"));
  EXPECT_FALSE(catalog.Has("nope"));
  auto def = catalog.Acquire("", &error);
  ASSERT_NE(def, nullptr) << error;
  auto alpha = catalog.Acquire("alpha", &error);
  ASSERT_NE(alpha, nullptr) << error;
  EXPECT_EQ(def->engine.get(), alpha->engine.get());

  EXPECT_EQ(catalog.Acquire("nope", &error), nullptr);
  EXPECT_NE(error.find("unknown graph id"), std::string::npos) << error;
}

TEST_F(EngineCatalogTest, LazyOpensCountMissesThenHits) {
  EngineCatalog catalog;
  std::string error;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(catalog.Register(kIds[i], SourceFor(i), &error)) << error;
  }
  CatalogStats s0 = catalog.Stats();
  EXPECT_EQ(s0.registered, 3u);
  EXPECT_EQ(s0.resident, 0u);  // nothing opened yet
  EXPECT_EQ(s0.misses, 0u);

  ASSERT_NE(catalog.Acquire("beta", &error), nullptr) << error;
  CatalogStats s1 = catalog.Stats();
  EXPECT_EQ(s1.resident, 1u);
  EXPECT_EQ(s1.misses, 1u);

  ASSERT_NE(catalog.Acquire("beta", &error), nullptr) << error;
  CatalogStats s2 = catalog.Stats();
  EXPECT_EQ(s2.misses, 1u);  // second acquire is a hit
  EXPECT_GE(s2.hits, 1u);

  // Per-tenant rows: beta resident, the others cold, all refreshable.
  std::vector<TenantInfo> list = catalog.List();
  ASSERT_EQ(list.size(), 3u);
  for (const TenantInfo& info : list) {
    EXPECT_EQ(info.resident, info.id == "beta");
    EXPECT_TRUE(info.refreshable);
  }
}

TEST_F(EngineCatalogTest, LruEvictionKeepsInFlightPinsAlive) {
  EngineCatalog catalog(/*max_engines=*/1);
  std::string error;
  ASSERT_TRUE(catalog.Register("alpha", SourceFor(0), &error)) << error;
  ASSERT_TRUE(catalog.Register("beta", SourceFor(1), &error)) << error;

  auto pin = catalog.Acquire("alpha", &error);
  ASSERT_NE(pin, nullptr) << error;

  // Opening beta must evict alpha (cap 1) — but the pin keeps the victim
  // engine alive and fully usable mid-"query".
  ASSERT_NE(catalog.Acquire("beta", &error), nullptr) << error;
  CatalogStats s = catalog.Stats();
  EXPECT_EQ(s.resident, 1u);
  EXPECT_EQ(s.evictions, 1u);
  auto q = ParsePattern(kPaperPattern);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(pin->engine->EvaluateCollect(*q).size(),
            ColdCount(t_[0].graph, kPaperPattern));

  // Reacquiring the victim is a fresh open that evicts the other tenant.
  auto reopened = catalog.Acquire("alpha", &error);
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_NE(reopened.get(), pin.get());
  s = catalog.Stats();
  EXPECT_EQ(s.resident, 1u);
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.misses, 3u);  // alpha, beta, alpha-again
}

TEST_F(EngineCatalogTest, AdoptedEnginesArePinnedResidents) {
  Graph graph = PaperExample::MakeGraph();
  GmEngine engine(graph);
  EngineCatalog catalog(/*max_engines=*/1);
  std::string error;
  ASSERT_TRUE(catalog.AdoptEngine("default", engine, &error)) << error;
  ASSERT_TRUE(catalog.Register("beta", SourceFor(1), &error)) << error;

  // The adopted tenant neither counts against the cap nor gets evicted:
  // both engines stay resident and the adopted one survives LRU pressure.
  ASSERT_NE(catalog.Acquire("beta", &error), nullptr) << error;
  ASSERT_NE(catalog.Acquire("beta", &error), nullptr) << error;
  CatalogStats s = catalog.Stats();
  EXPECT_EQ(s.resident, 2u);
  EXPECT_EQ(s.evictions, 0u);
  auto adopted = catalog.Acquire("", &error);
  ASSERT_NE(adopted, nullptr) << error;
  EXPECT_EQ(adopted->engine.get(), &engine);
}

TEST_F(EngineCatalogTest, ReopenAfterEvictionReplaysTheWholeLog) {
  EngineCatalog catalog(/*max_engines=*/1);
  std::string error;
  ASSERT_TRUE(catalog.Register("alpha", SourceFor(0), &error)) << error;
  ASSERT_TRUE(catalog.Register("beta", SourceFor(1), &error)) << error;

  AppendTo(0, {{0, 3}});
  auto first = catalog.Acquire("alpha", &error);
  ASSERT_NE(first, nullptr) << error;
  EXPECT_EQ(first->applied_seqno, 1u);  // lazy open replays the log

  // Evict alpha, grow its log, reopen: the fresh open must serve base plus
  // the ENTIRE current log, never the stale pre-eviction prefix.
  ASSERT_NE(catalog.Acquire("beta", &error), nullptr) << error;
  AppendTo(0, {{0, 4}});
  auto reopened = catalog.Acquire("alpha", &error);
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_EQ(reopened->applied_seqno, 2u);
  const std::vector<std::pair<NodeId, NodeId>> both = {{0, 3}, {0, 4}};
  Graph merged = ApplyEdgesToGraph(t_[0].graph, both);
  auto q = ParsePattern(kPaperPattern);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(reopened->engine->EvaluateCollect(*q).size(),
            ColdCount(merged, kPaperPattern));
}

TEST_F(EngineCatalogTest, RefreshIsScopedToOneTenant) {
  EngineCatalog catalog;
  std::string error;
  ASSERT_TRUE(catalog.Register("alpha", SourceFor(0), &error)) << error;
  ASSERT_TRUE(catalog.Register("beta", SourceFor(1), &error)) << error;
  auto beta_before = catalog.Acquire("beta", &error);
  ASSERT_NE(beta_before, nullptr) << error;

  AppendTo(0, {{0, 3}});
  CatalogRefreshResult r = catalog.Refresh("alpha");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.records_applied, 1u);
  auto alpha = catalog.Acquire("alpha", &error);
  ASSERT_NE(alpha, nullptr) << error;
  EXPECT_EQ(alpha->applied_seqno, 1u);

  // Beta's published state is the very pointer from before the refresh,
  // and its own refresh is a caught-up no-op (its log does not exist).
  auto beta_after = catalog.Acquire("beta", &error);
  ASSERT_NE(beta_after, nullptr) << error;
  EXPECT_EQ(beta_after.get(), beta_before.get());
  CatalogRefreshResult rb = catalog.Refresh("beta");
  EXPECT_TRUE(rb.ok) << rb.error;
  EXPECT_EQ(rb.records_applied, 0u);

  // Unknown tenants and tenants without a delta source are bad requests.
  CatalogRefreshResult unknown = catalog.Refresh("nope");
  EXPECT_FALSE(unknown.ok);
  EXPECT_TRUE(unknown.bad_request);
  EngineSource no_delta;
  no_delta.snapshot_path = t_[2].snap;
  ASSERT_TRUE(catalog.Register("gamma", no_delta, &error)) << error;
  CatalogRefreshResult nd = catalog.Refresh("gamma");
  EXPECT_FALSE(nd.ok);
  EXPECT_TRUE(nd.bad_request);
  EXPECT_NE(nd.error.find("delta"), std::string::npos) << nd.error;
}

TEST_F(EngineCatalogTest, PinResidentNeverOpensAndReleasesOnlyPublished) {
  EngineCatalog catalog(/*max_engines=*/1);
  std::string error;
  ASSERT_TRUE(catalog.Register("alpha", SourceFor(0), &error)) << error;
  ASSERT_TRUE(catalog.Register("beta", SourceFor(1), &error)) << error;

  // Unknown and cold tenants: no pin, no open, nothing counted.
  EXPECT_EQ(catalog.PinResident("nope"), nullptr);
  EXPECT_EQ(catalog.PinResident("alpha"), nullptr);
  CatalogStats s = catalog.Stats();
  EXPECT_EQ(s.resident, 0u);
  EXPECT_EQ(s.hits + s.misses, 0u);

  // A resident tenant pins like Acquire's hit, "" resolving to the default;
  // the pin counts as a catalog hit once its caller counts it.
  ASSERT_NE(catalog.Acquire("alpha", &error), nullptr) << error;
  std::shared_ptr<const EngineState> pin = catalog.PinResident("");
  ASSERT_NE(pin, nullptr);
  s = catalog.Stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);
  catalog.CountHit("");
  EXPECT_EQ(catalog.Stats().hits, 1u);
  catalog.CountHit("nope");
  EXPECT_EQ(catalog.Stats().hits, 1u);

  // While the catalog publishes the pinned state, the release drops it.
  std::weak_ptr<const EngineState> published = pin;
  EXPECT_TRUE(catalog.ReleaseIfPublished("alpha", &pin));
  EXPECT_EQ(pin, nullptr);
  EXPECT_FALSE(published.expired());

  // Once a refresh has replaced the state, the pin may be its last: the
  // release leaves it to the caller.
  pin = catalog.PinResident("alpha");
  AppendTo(0, {{0, 3}});
  ASSERT_TRUE(catalog.Refresh("alpha").ok);
  EXPECT_FALSE(catalog.ReleaseIfPublished("alpha", &pin));
  ASSERT_NE(pin, nullptr);
  EXPECT_EQ(pin.use_count(), 1);

  // Likewise once an eviction has dropped the catalog's reference.
  pin = catalog.PinResident("alpha");
  ASSERT_NE(pin, nullptr);
  ASSERT_NE(catalog.Acquire("beta", &error), nullptr) << error;
  EXPECT_EQ(catalog.PinResident("alpha"), nullptr);
  EXPECT_FALSE(catalog.ReleaseIfPublished("alpha", &pin));
  EXPECT_EQ(pin.use_count(), 1);
  EXPECT_FALSE(catalog.ReleaseIfPublished("nope", &pin));
}

// ------------------------------------------------------ daemon (end-to-end)

/// One daemon over the three tenant snapshots, catalog-backed.
class MultiTenantServerTest : public MultiTenantFiles {
 protected:
  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    MultiTenantFiles::TearDown();
  }

  void StartServer(uint32_t max_engines) {
    catalog_ = std::make_shared<EngineCatalog>(max_engines);
    std::string error;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(catalog_->Register(kIds[i], SourceFor(i), &error)) << error;
    }
    config_.unix_path = UniquePath() + ".sock";
    config_.num_workers = 4;
    server_ = std::make_unique<QueryServer>(catalog_, config_);
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  QueryClient Connect(const std::string& graph_id = "") {
    QueryClient client;
    std::string error;
    EXPECT_TRUE(client.ConnectUnix(config_.unix_path, &error)) << error;
    client.SetGraph(graph_id);
    return client;
  }

  uint64_t ServedCount(QueryClient& client, const std::string& pattern) {
    QueryRequest req;
    req.patterns = {pattern};
    std::string error;
    auto resp = client.Query(req, &error);
    EXPECT_TRUE(resp.has_value()) << error;
    if (!resp.has_value()) return ~0ull;
    EXPECT_EQ(resp->status, StatusCode::kOk) << resp->error;
    return resp->results[0].num_occurrences;
  }

  std::shared_ptr<EngineCatalog> catalog_;
  ServerConfig config_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(MultiTenantServerTest, ScopedCountsMatchDedicatedDaemons) {
  StartServer(/*max_engines=*/0);
  const std::vector<std::string> patterns = {
      kPaperPattern, "(a:0)->(b:1)", "(b:1)=>(c:2)"};

  // For each tenant: a dedicated single-tenant daemon over the same graph
  // must serve byte-identical counts to the scoped view of the shared one.
  for (int i = 0; i < 3; ++i) {
    GmEngine engine(t_[i].graph);
    auto solo_catalog = std::make_shared<EngineCatalog>();
    solo_catalog->AdoptEngine("default", engine);
    ServerConfig solo_cfg;
    solo_cfg.unix_path = UniquePath() + ".sock";
    solo_cfg.num_workers = 2;
    QueryServer dedicated(solo_catalog, solo_cfg);
    std::string error;
    ASSERT_TRUE(dedicated.Start(&error)) << error;

    QueryClient solo;
    ASSERT_TRUE(solo.ConnectUnix(solo_cfg.unix_path, &error)) << error;
    QueryClient scoped = Connect(kIds[i]);
    for (const std::string& pattern : patterns) {
      EXPECT_EQ(ServedCount(scoped, pattern), ServedCount(solo, pattern))
          << kIds[i] << " " << pattern;
    }
    dedicated.Stop();
  }

  // Scoped pipelining: in-flight requests for two tenants on two
  // connections, all counts still per-tenant exact.
  QueryClient a = Connect("alpha");
  QueryClient b = Connect("beta");
  QueryRequest req;
  req.patterns = {kPaperPattern};
  std::vector<QueryRequest> batch(4, req);
  std::string error;
  auto ra = a.QueryPipelined(batch, &error);
  ASSERT_TRUE(ra.has_value()) << error;
  auto rb = b.QueryPipelined(batch, &error);
  ASSERT_TRUE(rb.has_value()) << error;
  for (const QueryResponse& resp : *ra) {
    ASSERT_EQ(resp.status, StatusCode::kOk) << resp.error;
    EXPECT_EQ(resp.results[0].num_occurrences,
              ColdCount(t_[0].graph, kPaperPattern));
  }
  for (const QueryResponse& resp : *rb) {
    ASSERT_EQ(resp.status, StatusCode::kOk) << resp.error;
    EXPECT_EQ(resp.results[0].num_occurrences,
              ColdCount(t_[1].graph, kPaperPattern));
  }
}

TEST_F(MultiTenantServerTest, UnknownGraphIdIsABadRequestNotADeadSocket) {
  StartServer(/*max_engines=*/0);
  QueryClient client = Connect("nope");
  QueryRequest req;
  req.patterns = {kPaperPattern};
  std::string error;
  auto resp = client.Query(req, &error);
  ASSERT_TRUE(resp.has_value()) << error;
  EXPECT_EQ(resp->status, StatusCode::kBadRequest);
  EXPECT_NE(resp->error.find("unknown graph id"), std::string::npos)
      << resp->error;

  // The connection survives the rejection; readdressing fixes the session.
  client.SetGraph("beta");
  EXPECT_EQ(ServedCount(client, kPaperPattern),
            ColdCount(t_[1].graph, kPaperPattern));
}

TEST_F(MultiTenantServerTest, EvictionChurnUnderCapOneServesExactCounts) {
  StartServer(/*max_engines=*/1);
  const uint64_t expected[2] = {ColdCount(t_[0].graph, kPaperPattern),
                                ColdCount(t_[1].graph, kPaperPattern)};

  // A pinned acquire plays the "query in flight on the victim": alpha gets
  // evicted by the churn below while this pin stays usable throughout.
  std::string error;
  auto pin = catalog_->Acquire("alpha", &error);
  ASSERT_NE(pin, nullptr) << error;

  // Two tenants hammered concurrently under a one-engine cap: every
  // request may evict the other tenant, and every count must stay exact.
  constexpr int kRounds = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      QueryClient client = Connect(kIds[i]);
      QueryRequest req;
      req.patterns = {kPaperPattern};
      for (int round = 0; round < kRounds; ++round) {
        std::string thread_error;
        auto resp = client.Query(req, &thread_error);
        if (!resp.has_value() || resp->status != StatusCode::kOk ||
            resp->results[0].num_occurrences != expected[i]) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  auto q = ParsePattern(kPaperPattern);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(pin->engine->EvaluateCollect(*q).size(), expected[0]);

  CatalogStats s = catalog_->Stats();
  EXPECT_LE(s.resident, 1u);
  EXPECT_GE(s.evictions, 1u);
  EXPECT_GE(s.misses, 2u);
}

TEST_F(MultiTenantServerTest, OnlyServedRequestsKeepATenantResident) {
  // The LRU evictor drops the tenant used longest ago. A request the daemon
  // rejects is no use of its tenant: a client sending bad bodies to a
  // resident tenant must not keep it resident and push out tenants that
  // serve. A cache hit and a valid miss are uses.
  StartServer(/*max_engines=*/2);
  QueryClient alpha = Connect("alpha");
  QueryClient beta = Connect("beta");
  QueryClient gamma = Connect("gamma");
  auto resident = [&] {
    std::vector<std::string> ids;
    for (const TenantInfo& info : catalog_->List()) {
      if (info.resident) ids.push_back(info.id);
    }
    return ids;
  };
  using Ids = std::vector<std::string>;
  const uint64_t expected[3] = {ColdCount(t_[0].graph, kPaperPattern),
                                ColdCount(t_[1].graph, kPaperPattern),
                                ColdCount(t_[2].graph, kPaperPattern)};
  EXPECT_EQ(ServedCount(alpha, kPaperPattern), expected[0]);
  EXPECT_EQ(ServedCount(beta, kPaperPattern), expected[1]);

  // alpha is the older use; two rejected requests to it change nothing.
  QueryRequest bad;
  bad.patterns = {"not a pattern"};
  std::string error;
  for (int i = 0; i < 2; ++i) {
    auto resp = alpha.Query(bad, &error);
    ASSERT_TRUE(resp.has_value()) << error;
    EXPECT_EQ(resp->status, StatusCode::kParseError);
  }
  EXPECT_EQ(ServedCount(gamma, kPaperPattern), expected[2]);
  EXPECT_EQ(resident(), (Ids{"beta", "gamma"}));

  // A cache hit on beta leaves gamma the older use.
  const uint64_t hits_before = server_->Snapshot().cache_hits;
  EXPECT_EQ(ServedCount(beta, kPaperPattern), expected[1]);
  EXPECT_EQ(server_->Snapshot().cache_hits, hits_before + 1);
  EXPECT_EQ(ServedCount(alpha, kPaperPattern), expected[0]);
  EXPECT_EQ(resident(), (Ids{"alpha", "beta"}));

  // So does a valid miss on beta for alpha.
  const std::string edge = "(a:0)->(b:1)";
  EXPECT_EQ(ServedCount(beta, edge), ColdCount(t_[1].graph, edge));
  EXPECT_EQ(ServedCount(gamma, kPaperPattern), expected[2]);
  EXPECT_EQ(resident(), (Ids{"beta", "gamma"}));
  EXPECT_EQ(catalog_->Stats().evictions, 3u);
}

TEST_F(MultiTenantServerTest, RefreshIsIsolatedPerTenant) {
  StartServer(/*max_engines=*/0);
  QueryClient alpha = Connect("alpha");
  QueryClient beta = Connect("beta");
  const uint64_t beta_before = ServedCount(beta, kPaperPattern);

  // Refresh alpha after its log grows: alpha serves base+delta, beta's
  // count and beta's own (log-less) refresh are untouched.
  const std::vector<std::pair<NodeId, NodeId>> batch = {{0, 3}, {0, 7}};
  AppendTo(0, batch);
  std::string error;
  auto r = alpha.Refresh(&error);
  ASSERT_TRUE(r.has_value()) << error;
  ASSERT_EQ(r->status, StatusCode::kOk) << r->error;
  EXPECT_EQ(r->records_applied, 1u);
  Graph merged = ApplyEdgesToGraph(t_[0].graph, batch);
  EXPECT_EQ(ServedCount(alpha, kPaperPattern),
            ColdCount(merged, kPaperPattern));
  EXPECT_EQ(ServedCount(beta, kPaperPattern), beta_before);

  auto rb = beta.Refresh(&error);
  ASSERT_TRUE(rb.has_value()) << error;
  EXPECT_EQ(rb->status, StatusCode::kOk) << rb->error;
  EXPECT_EQ(rb->records_applied, 0u);

  // The stats rows report the divergent per-tenant seqnos.
  auto stats = alpha.Stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->tenants.size(), 3u);
  bool saw_alpha = false, saw_beta = false;
  for (const GraphInfoWire& g : stats->tenants) {
    if (g.id == "alpha") {
      saw_alpha = true;
      EXPECT_EQ(g.applied_seqno, 1u);
    }
    if (g.id == "beta") {
      saw_beta = true;
      EXPECT_EQ(g.applied_seqno, 0u);
    }
  }
  EXPECT_TRUE(saw_alpha);
  EXPECT_TRUE(saw_beta);
}

TEST_F(MultiTenantServerTest, UnscopedClientsServeTheDefaultTenant) {
  StartServer(/*max_engines=*/0);

  // A session with no graph set sends an empty graph id: its queries land
  // on the default tenant (first registered), its ping just works.
  QueryClient unscoped = Connect();
  EXPECT_EQ(ServedCount(unscoped, kPaperPattern),
            ColdCount(t_[0].graph, kPaperPattern));
  std::string error;
  EXPECT_TRUE(unscoped.Ping(&error)) << error;

  auto stats = unscoped.Stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->default_id, "alpha");
  ASSERT_EQ(stats->tenants.size(), 3u);
}

TEST_F(MultiTenantServerTest, StatsRowsCarryEachTenantsCacheCounters) {
  StartServer(/*max_engines=*/0);
  QueryClient alpha = Connect("alpha");
  QueryClient beta = Connect("beta");
  const std::string edge = "(a:0)->(b:1)";
  EXPECT_EQ(ServedCount(alpha, kPaperPattern),
            ColdCount(t_[0].graph, kPaperPattern));
  EXPECT_EQ(ServedCount(alpha, kPaperPattern),
            ColdCount(t_[0].graph, kPaperPattern));
  EXPECT_EQ(ServedCount(beta, edge), ColdCount(t_[1].graph, edge));

  std::string error;
  auto stats = alpha.Stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->default_id, "alpha");
  ASSERT_EQ(stats->tenants.size(), 3u);
  const GraphInfoWire& a = stats->tenants[0];
  const GraphInfoWire& b = stats->tenants[1];
  const GraphInfoWire& g = stats->tenants[2];
  EXPECT_EQ(a.id, "alpha");
  EXPECT_TRUE(a.resident);
  EXPECT_EQ(a.queries, 2u);
  EXPECT_EQ(a.misses, 1u);
  EXPECT_EQ(a.hits, 1u);
  EXPECT_EQ(a.inserts, 1u);
  EXPECT_EQ(a.entries, 1u);
  EXPECT_GT(a.bytes_used, 0u);
  EXPECT_EQ(b.id, "beta");
  EXPECT_TRUE(b.resident);
  EXPECT_EQ(b.queries, 1u);
  EXPECT_EQ(b.misses, 1u);
  EXPECT_EQ(b.hits, 0u);

  // gamma was never opened: a cold row with nothing counted.
  EXPECT_EQ(g.id, "gamma");
  EXPECT_FALSE(g.resident);
  EXPECT_TRUE(g.refreshable);
  for (uint64_t counter :
       {g.applied_seqno, g.queries, g.hits, g.misses, g.inserts, g.evictions,
        g.singleflight_waits, g.bytes_used, g.entries}) {
    EXPECT_EQ(counter, 0u);
  }

  // The cache totals are the sums of the rows.
  GraphInfoWire sum;
  for (const GraphInfoWire& t : stats->tenants) {
    sum.hits += t.hits;
    sum.misses += t.misses;
    sum.inserts += t.inserts;
    sum.evictions += t.evictions;
    sum.singleflight_waits += t.singleflight_waits;
    sum.bytes_used += t.bytes_used;
    sum.entries += t.entries;
  }
  EXPECT_EQ(stats->cache_hits, sum.hits);
  EXPECT_EQ(stats->cache_misses, sum.misses);
  EXPECT_EQ(stats->cache_inserts, sum.inserts);
  EXPECT_EQ(stats->cache_evictions, sum.evictions);
  EXPECT_EQ(stats->cache_singleflight_waits, sum.singleflight_waits);
  EXPECT_EQ(stats->cache_bytes_used, sum.bytes_used);
  EXPECT_EQ(stats->cache_entries, sum.entries);
}

TEST_F(MultiTenantServerTest, UnreadableDeltaPathFailsOnlyItsTenant) {
  // Tenant b (the default) serves its snapshot alone; tenant a names a
  // directory as its delta log. A query to a is the server's failure, and
  // the daemon goes on serving b.
  const std::string dir = UniquePath() + ".dir";
  ASSERT_TRUE(std::filesystem::create_directory(dir));
  catalog_ = std::make_shared<EngineCatalog>();
  std::string error;
  EngineSource b;
  b.snapshot_path = t_[1].snap;
  ASSERT_TRUE(catalog_->Register("b", b, &error)) << error;
  EngineSource a = SourceFor(0);
  a.delta_path = dir;
  ASSERT_TRUE(catalog_->Register("a", a, &error)) << error;
  config_.unix_path = UniquePath() + ".sock";
  config_.num_workers = 4;
  server_ = std::make_unique<QueryServer>(catalog_, config_);
  ASSERT_TRUE(server_->Start(&error)) << error;

  QueryClient client = Connect("a");
  QueryRequest req;
  req.patterns = {kPaperPattern};
  auto resp = client.Query(req, &error);
  ASSERT_TRUE(resp.has_value()) << error;
  EXPECT_EQ(resp->status, StatusCode::kInternalError);
  EXPECT_NE(resp->error.find("not a regular file"), std::string::npos)
      << resp->error;

  client.SetGraph("b");
  EXPECT_EQ(ServedCount(client, kPaperPattern),
            ColdCount(t_[1].graph, kPaperPattern));
  QueryClient unscoped = Connect();
  EXPECT_EQ(ServedCount(unscoped, kPaperPattern),
            ColdCount(t_[1].graph, kPaperPattern));
  std::filesystem::remove_all(dir);
}

TEST_F(MultiTenantServerTest, MalformedHeaderIsRejectedInPlace) {
  StartServer(/*max_engines=*/0);
  QueryClient client = Connect();
  QueryRequest req;
  req.patterns = {kPaperPattern};
  ByteSink full;
  WriteRequestHeader(full, 7, "alpha");
  req.Serialize(full);
  // The frame ends two bytes into the graph id, so its declared length
  // runs past the frame end.
  ByteSink cut;
  cut.WriteRaw(full.data().data(), 2 * sizeof(uint64_t) + 2);

  std::string error;
  ASSERT_TRUE(WriteFrame(client.fd(), cut, &error)) << error;
  std::vector<uint8_t> payload;
  ASSERT_EQ(ReadFrame(client.fd(), kDefaultMaxFrameBytes, &payload, &error),
            FrameReadStatus::kOk)
      << error;
  ByteSource src(payload.data(), payload.size());
  EXPECT_EQ(src.ReadU64(), 0u);  // no readable header, no id to echo
  ASSERT_EQ(ReadMessageType(src), MessageType::kErrorResponse);
  EXPECT_EQ(static_cast<StatusCode>(src.ReadU32()), StatusCode::kBadRequest);
  std::string message = src.ReadString();
  EXPECT_NE(message.find("request header"), std::string::npos) << message;

  // The rejection left the stream framed: the session still serves.
  EXPECT_EQ(ServedCount(client, kPaperPattern),
            ColdCount(t_[0].graph, kPaperPattern));
}

}  // namespace
}  // namespace rigpm
