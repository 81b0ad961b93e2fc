// Result-cache tests (server/result_cache.h, PatternQuery::CanonicalEncoding):
// the canonical-encoding differential suite (permuted declarations collide,
// semantic mutations separate), the sharded-LRU byte budget, singleflight
// coalescing under thread fire, and the server-level guarantees that a
// request shares an entry only with byte-identical requests and that a warm
// cache never outlives the engine generation it was computed against.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/gm_engine.h"
#include "query/pattern_parser.h"
#include "query/pattern_query.h"
#include "server/client.h"
#include "server/result_cache.h"
#include "server/server.h"
#include "storage/delta_log.h"
#include "storage/snapshot.h"
#include "test_util.h"

namespace rigpm {
namespace {

using rigpm::testing::PaperExample;
using namespace rigpm::server;

// --------------------------------------------------- canonical encodings

/// Renumbers a query's nodes by `perm` (old id -> new id) and shuffles the
/// edge declaration order: the same pattern as the caller would have
/// written it in a different textual order.
PatternQuery Permuted(const PatternQuery& q,
                      const std::vector<QueryNodeId>& perm,
                      std::mt19937* rng) {
  std::vector<LabelId> labels(q.NumNodes());
  for (QueryNodeId n = 0; n < q.NumNodes(); ++n)
    labels[perm[n]] = q.Label(n);
  std::vector<QueryEdge> edges = q.Edges();
  for (QueryEdge& e : edges) {
    e.from = perm[e.from];
    e.to = perm[e.to];
  }
  std::shuffle(edges.begin(), edges.end(), *rng);
  return PatternQuery::FromParts(std::move(labels), std::move(edges));
}

/// A random connected pattern: a spanning tree plus a few extra edges, with
/// deliberately few labels so WL refinement actually faces ties.
PatternQuery RandomPattern(std::mt19937* rng) {
  std::uniform_int_distribution<uint32_t> size(2, 7);
  const uint32_t n = size(*rng);
  std::uniform_int_distribution<LabelId> label(0, 2);
  std::uniform_int_distribution<int> coin(0, 1);
  std::vector<LabelId> labels(n);
  for (LabelId& l : labels) l = label(*rng);
  std::vector<QueryEdge> edges;
  for (QueryNodeId v = 1; v < n; ++v) {
    std::uniform_int_distribution<QueryNodeId> parent(0, v - 1);
    QueryEdge e;
    e.from = parent(*rng);
    e.to = v;
    e.kind = coin(*rng) != 0 ? EdgeKind::kDescendant : EdgeKind::kChild;
    if (e.kind == EdgeKind::kDescendant && coin(*rng) != 0) e.max_hops = 3;
    edges.push_back(e);
  }
  std::uniform_int_distribution<QueryNodeId> any(0, n - 1);
  for (uint32_t extra = n / 2; extra > 0; --extra) {
    QueryEdge e;
    e.from = any(*rng);
    e.to = any(*rng);
    if (e.from == e.to) continue;
    e.kind = coin(*rng) != 0 ? EdgeKind::kDescendant : EdgeKind::kChild;
    edges.push_back(e);
  }
  return PatternQuery::FromParts(std::move(labels), std::move(edges));
}

TEST(CanonicalEncoding, PermutedDeclarationOrdersCollide) {
  // The differential: for many random patterns and many random node
  // renumberings, the encoding must not depend on declaration order.
  std::mt19937 rng(20230907);
  for (int trial = 0; trial < 80; ++trial) {
    PatternQuery q = RandomPattern(&rng);
    const std::vector<uint8_t> enc = q.CanonicalEncoding();
    std::vector<QueryNodeId> perm(q.NumNodes());
    std::iota(perm.begin(), perm.end(), 0);
    for (int round = 0; round < 4; ++round) {
      std::shuffle(perm.begin(), perm.end(), rng);
      PatternQuery twin = Permuted(q, perm, &rng);
      EXPECT_EQ(twin.CanonicalEncoding(), enc)
          << "trial " << trial << ": " << q.Summary() << " vs "
          << twin.Summary();
    }
  }
}

TEST(CanonicalEncoding, TextDeclarationOrderIsIrrelevant) {
  // The same property end-to-end through the parser: comma-permuted clause
  // order renumbers nodes by first appearance, which must not show through.
  auto a = ParsePattern("(a:0)->(b:1), (a)->(c:2), (b)=>(c)");
  auto b = ParsePattern("(b:1)=>(c:2), (x:0)->(c), (x)->(b)");
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(a->CanonicalEncoding(), b->CanonicalEncoding());
}

TEST(CanonicalEncoding, SemanticMutationsSeparate) {
  // Mutations chosen so the label / kind / hops multiset provably changes —
  // the mutant cannot be isomorphic to the original, so a collision would
  // be a genuine cache-poisoning bug, not an isomorphism false alarm.
  std::mt19937 rng(424242);
  for (int trial = 0; trial < 80; ++trial) {
    PatternQuery q = RandomPattern(&rng);
    const std::vector<uint8_t> enc = q.CanonicalEncoding();

    std::uniform_int_distribution<QueryNodeId> node(0, q.NumNodes() - 1);
    std::vector<LabelId> labels = q.Labels();
    labels[node(rng)] = 9;  // a label the generator never emits
    EXPECT_NE(PatternQuery::FromParts(labels, q.Edges()).CanonicalEncoding(),
              enc);

    std::uniform_int_distribution<QueryEdgeId> pick(0, q.NumEdges() - 1);
    std::vector<QueryEdge> kind_flip = q.Edges();
    QueryEdge& ke = kind_flip[pick(rng)];
    ke.kind = ke.kind == EdgeKind::kChild ? EdgeKind::kDescendant
                                          : EdgeKind::kChild;
    ke.max_hops = 0;
    PatternQuery mutant =
        PatternQuery::FromParts(q.Labels(), std::move(kind_flip));
    if (mutant.NumEdges() == q.NumEdges()) {  // flip may collide + dedup
      EXPECT_NE(mutant.CanonicalEncoding(), enc);
    }

    std::vector<QueryEdge> hops = q.Edges();
    QueryEdge& he = hops[pick(rng)];
    if (he.kind == EdgeKind::kDescendant) {
      he.max_hops = he.max_hops == 0 ? 7 : he.max_hops + 4;
      EXPECT_NE(PatternQuery::FromParts(q.Labels(), hops).CanonicalEncoding(),
                enc);
    }
  }
}

TEST(CanonicalEncoding, DirectionMattersOnAsymmetricPatterns) {
  auto fwd = ParsePattern("(a:0)->(b:1), (b)->(c:1)");
  auto rev = ParsePattern("(a:0)<-(b:1), (b)<-(c:1)");
  if (!rev.has_value()) {  // the grammar may not have reverse arrows
    PatternQuery q = PatternQuery::FromParts(
        {0, 1, 1}, {{1, 0, EdgeKind::kChild, 0}, {2, 1, EdgeKind::kChild, 0}});
    rev = q;
  }
  ASSERT_TRUE(fwd.has_value());
  EXPECT_NE(fwd->CanonicalEncoding(), rev->CanonicalEncoding());
}

TEST(CanonicalEncoding, ChildHopsAreNormalized) {
  // max_hops is documented as ignored for child edges; two declarations
  // differing only there are the same query and must share a key.
  PatternQuery a = PatternQuery::FromParts(
      {0, 1}, {{0, 1, EdgeKind::kChild, 0}});
  PatternQuery b = PatternQuery::FromParts(
      {0, 1}, {{0, 1, EdgeKind::kChild, 5}});
  EXPECT_EQ(a.CanonicalEncoding(), b.CanonicalEncoding());
}

TEST(CanonicalEncoding, HighSymmetryPatternsStayCanonical) {
  // A 6-cycle of one label is the worst case for refinement (every node is
  // in one color class); the bounded permutation search must still land on
  // one orbit representative for every rotation.
  auto cycle = [](uint32_t shift) {
    std::vector<QueryEdge> edges;
    for (uint32_t v = 0; v < 6; ++v) {
      edges.push_back({(v + shift) % 6, (v + 1 + shift) % 6,
                       EdgeKind::kChild, 0});
    }
    return PatternQuery::FromParts(std::vector<LabelId>(6, 1),
                                   std::move(edges));
  };
  const std::vector<uint8_t> enc = cycle(0).CanonicalEncoding();
  for (uint32_t shift = 1; shift < 6; ++shift) {
    EXPECT_EQ(cycle(shift).CanonicalEncoding(), enc) << shift;
  }
}

// ------------------------------------------------------ ResultCache unit

ResultCache::Value MakeValue(uint64_t occurrences, size_t pad = 0) {
  auto resp = std::make_shared<QueryResponse>();
  QueryResultWire r;
  r.num_occurrences = occurrences;
  resp->results.push_back(r);
  resp->tuples.assign(pad, 0);
  return resp;
}

TEST(ResultCacheUnit, HitAfterInsertAndStatsAccounting) {
  ResultCache cache(1 << 20, /*num_shards=*/2);
  EXPECT_EQ(cache.Lookup("k1"), nullptr);
  auto v = cache.GetOrCompute("k1", [] { return MakeValue(7); });
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->results[0].num_occurrences, 7u);

  auto again = cache.GetOrCompute(
      "k1", []() -> ResultCache::Value { ADD_FAILURE(); return nullptr; });
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again.get(), v.get());  // the cached object, not a recompute
  ASSERT_NE(cache.Lookup("k1"), nullptr);

  ResultCacheStats s = cache.Stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.bytes_used, 0u);
}

TEST(ResultCacheUnit, ByteBudgetEvictsLeastRecentlyUsed) {
  // Entries of ~1 KiB against a budget that holds only a few per shard;
  // one shard keeps the arithmetic exact.
  ResultCache cache(4096, /*num_shards=*/1);
  const size_t pad = 128;  // tuples payload; EntryBytes adds overhead
  for (int i = 0; i < 64; ++i) {
    std::string key = "key-" + std::to_string(i);
    cache.GetOrCompute(key, [&] { return MakeValue(i, pad); });
  }
  ResultCacheStats s = cache.Stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.bytes_used, 4096u);
  EXPECT_EQ(s.misses, 64u);
  // The most recent key survived, the oldest was evicted.
  EXPECT_NE(cache.Lookup("key-63"), nullptr);
  EXPECT_EQ(cache.Lookup("key-0"), nullptr);
}

TEST(ResultCacheUnit, TouchOnHitProtectsHotKeys) {
  ResultCache cache(4096, /*num_shards=*/1);
  cache.GetOrCompute("hot", [] { return MakeValue(1, 128); });
  for (int i = 0; i < 64; ++i) {
    ASSERT_NE(cache.Lookup("hot"), nullptr) << "round " << i;  // keep MRU
    cache.GetOrCompute("cold-" + std::to_string(i),
                       [] { return MakeValue(2, 128); });
  }
  EXPECT_NE(cache.Lookup("hot"), nullptr);
}

TEST(ResultCacheUnit, OversizeEntryIsServedButNotCached) {
  ResultCache cache(512, /*num_shards=*/1);
  auto v = cache.GetOrCompute("huge", [] { return MakeValue(1, 4096); });
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(cache.Stats().entries, 0u);
  EXPECT_EQ(cache.Lookup("huge"), nullptr);
}

TEST(ResultCacheUnit, FailedComputeIsNotCachedAndRetries) {
  ResultCache cache(1 << 20);
  auto miss = cache.GetOrCompute(
      "k", []() -> ResultCache::Value { return nullptr; });
  EXPECT_EQ(miss, nullptr);
  auto retry = cache.GetOrCompute("k", [] { return MakeValue(3); });
  ASSERT_NE(retry, nullptr);
  EXPECT_EQ(retry->results[0].num_occurrences, 3u);
}

TEST(ResultCacheUnit, SingleflightComputesOnceUnderThreadFire) {
  // N threads race the same cold key: exactly one compute may run, the
  // rest must wait for it and observe the same object. This test is part
  // of the TSan matrix.
  ResultCache cache(1 << 20);
  constexpr int kThreads = 8;
  std::atomic<int> computes{0};
  std::atomic<bool> go{false};
  std::vector<ResultCache::Value> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      seen[t] = cache.GetOrCompute("cold", [&] {
        ++computes;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return MakeValue(11);
      });
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(computes.load(), 1);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(seen[t], nullptr) << t;
    EXPECT_EQ(seen[t].get(), seen[0].get());
  }
  ResultCacheStats s = cache.Stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits + s.singleflight_waits, kThreads - 1u);
}

TEST(ResultCacheUnit, ConcurrentMixedTrafficStaysConsistent) {
  // Hot/cold mix across shards with eviction pressure — the TSan target
  // for the shard locking itself. Every returned value must carry the
  // occurrence count its key encodes.
  ResultCache cache(16 << 10, /*num_shards=*/4);
  constexpr int kThreads = 6;
  constexpr int kRounds = 300;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(1000 + t);
      std::uniform_int_distribution<int> key(0, 31);
      for (int r = 0; r < kRounds; ++r) {
        const int k = key(rng);
        auto v = cache.GetOrCompute(
            "key-" + std::to_string(k),
            [&] { return MakeValue(static_cast<uint64_t>(k), 64); });
        if (v == nullptr ||
            v->results[0].num_occurrences != static_cast<uint64_t>(k)) {
          ++bad;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  ResultCacheStats s = cache.Stats();
  EXPECT_EQ(s.hits + s.misses + s.singleflight_waits,
            static_cast<uint64_t>(kThreads) * kRounds);
}

// ------------------------------------------- server: generation scoping

std::string UniqueSocketPath() {
  static std::atomic<int> counter{0};
  return (std::filesystem::temp_directory_path() /
          ("rigpm_cache_test_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++) + ".sock"))
      .string();
}

/// Snapshot + delta-log server, as in test_server's RefreshTest, but aimed
/// at the cache: warm it up, change the graph underneath, and prove the
/// old generation's answers are gone.
class CacheRefreshTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_graph_ = PaperExample::MakeGraph();
    snap_path_ = UniqueSocketPath() + ".snap";
    delta_path_ = UniqueSocketPath() + ".delta";
    std::string error;
    {
      GmEngine cold(base_graph_);
      ASSERT_TRUE(SaveEngineSnapshot(cold, snap_path_, &error)) << error;
    }
    auto info = InspectSnapshot(snap_path_, &error);
    ASSERT_TRUE(info.has_value()) << error;
    base_checksum_ = info->stored_checksum;
    auto catalog = std::make_shared<EngineCatalog>();
    EngineSource source;
    source.snapshot_path = snap_path_;
    source.delta_path = delta_path_;
    ASSERT_TRUE(catalog->Register("default", source, &error)) << error;
    ASSERT_NE(catalog->Acquire("", &error), nullptr) << error;

    config_.unix_path = UniqueSocketPath();
    config_.num_workers = 2;
    server_ = std::make_unique<QueryServer>(catalog, config_);
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    std::remove(snap_path_.c_str());
    std::remove(delta_path_.c_str());
  }

  void AppendBatch(const std::vector<std::pair<NodeId, NodeId>>& edges) {
    std::string error;
    auto writer = DeltaWriter::Open(delta_path_, base_checksum_,
                                    base_graph_.NumNodes(), &error);
    ASSERT_NE(writer, nullptr) << error;
    ASSERT_TRUE(writer->Append(edges, &error)) << error;
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

  Graph base_graph_;
  std::string snap_path_, delta_path_;
  uint64_t base_checksum_ = 0;
  ServerConfig config_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(CacheRefreshTest, RepeatedQueriesHitAndStayByteIdentical) {
  QueryClient client;
  std::string error;
  ASSERT_TRUE(client.ConnectUnix(config_.unix_path, &error)) << error;
  QueryRequest req;
  req.patterns = {"(a:0)->(b:1), (a)->(c:2), (b)=>(c)"};
  req.max_return_tuples = 100;

  auto cold = client.Query(req, &error);
  ASSERT_TRUE(cold.has_value()) << error;
  ASSERT_EQ(cold->status, StatusCode::kOk) << cold->error;
  EXPECT_EQ(cold->results[0].num_occurrences, 4u);

  for (int round = 0; round < 5; ++round) {
    auto warm = client.Query(req, &error);
    ASSERT_TRUE(warm.has_value()) << error;
    ASSERT_EQ(warm->status, StatusCode::kOk);
    EXPECT_EQ(warm->results[0].num_occurrences,
              cold->results[0].num_occurrences);
    EXPECT_EQ(warm->tuples, cold->tuples);  // byte-identical echo
    EXPECT_EQ(warm->tuple_arity, cold->tuple_arity);
  }
  StatsResponse stats = server_->Snapshot();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_GE(stats.cache_hits, 5u);
  EXPECT_EQ(stats.queries_served, 6u);  // hits still count as served
}

TEST_F(CacheRefreshTest, PermutedRequestTextGetsItsOwnTuples) {
  // Two declarations of one pattern number their nodes differently, so a
  // tuple of one lists its nodes in another column order than the other's.
  // Each must get the tuples a cold evaluation of its own text gives, and
  // so each is its own cache miss.
  QueryClient client;
  std::string error;
  ASSERT_TRUE(client.ConnectUnix(config_.unix_path, &error)) << error;
  const GmEngine cold(base_graph_);
  for (const std::string& text : {"(a:0)->(b:1), (a)->(c:2), (b)=>(c)",
                                  "(b:1)=>(c:2), (x:0)->(c), (x)->(b)"}) {
    QueryRequest req;
    req.patterns = {text};
    req.max_return_tuples = 100;
    auto resp = client.Query(req, &error);
    ASSERT_TRUE(resp.has_value()) << error;
    ASSERT_EQ(resp->status, StatusCode::kOk) << resp->error;
    auto q = ParsePattern(text);
    ASSERT_TRUE(q.has_value());
    std::vector<NodeId> want;
    for (const Occurrence& t : cold.EvaluateCollect(*q)) {
      want.insert(want.end(), t.begin(), t.end());
    }
    EXPECT_EQ(resp->tuple_arity, q->NumNodes()) << text;
    EXPECT_EQ(resp->tuples, want) << text;
    EXPECT_EQ(resp->results[0].num_occurrences, 4u) << text;
  }
  StatsResponse stats = server_->Snapshot();
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
}

TEST_F(CacheRefreshTest, RefreshInvalidatesWholesaleAndMatchesColdRebuild) {
  const std::string pattern = "(a:0)->(b:1)";
  QueryClient client;
  std::string error;
  ASSERT_TRUE(client.ConnectUnix(config_.unix_path, &error)) << error;

  // Warm the cache on the base graph.
  const uint64_t before = ServedCount(client, pattern);
  EXPECT_EQ(ServedCount(client, pattern), before);
  EXPECT_GE(server_->Snapshot().cache_hits, 1u);

  // Change the answer underneath and refresh: the new generation's cache
  // starts empty, so the served count must equal a cold rebuild — a stale
  // hit would return `before`.
  const std::vector<std::pair<NodeId, NodeId>> batch = {{0, 3}, {0, 7}};
  AppendBatch(batch);
  auto r = client.Refresh(&error);
  ASSERT_TRUE(r.has_value()) << error;
  ASSERT_EQ(r->status, StatusCode::kOk) << r->error;

  Graph merged = ApplyEdgesToGraph(base_graph_, batch);
  GmEngine cold(merged);
  auto q = ParsePattern(pattern);
  ASSERT_TRUE(q.has_value());
  const uint64_t expected = cold.EvaluateCollect(*q).size();
  ASSERT_NE(expected, before) << "batch must change the answer";
  EXPECT_EQ(ServedCount(client, pattern), expected);
  EXPECT_EQ(ServedCount(client, pattern), expected);

  // The generation swap reset the per-tenant counters: the post-refresh
  // pair above is one fresh miss plus one fresh hit.
  StatsResponse stats = server_->Snapshot();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST_F(CacheRefreshTest, HammeredCacheSurvivesConcurrentRefreshes) {
  // Clients replay a small pattern set (maximum hit pressure) while the
  // main thread swaps generations twice. Every round trip must succeed and
  // every count must belong to some legal generation — the TSan target for
  // cache-attached engine swaps.
  const std::vector<std::string> patterns = {
      "(a:0)->(b:1)", "(a:0)->(b:1), (a)->(c:2), (b)=>(c)"};
  auto counts_for =
      [&](const std::vector<std::pair<NodeId, NodeId>>& extra) {
        Graph merged = ApplyEdgesToGraph(base_graph_, extra);
        GmEngine cold(merged);
        std::vector<uint64_t> counts;
        for (const std::string& p : patterns) {
          auto q = ParsePattern(p);
          counts.push_back(cold.EvaluateCollect(*q).size());
        }
        return counts;
      };
  const std::vector<std::pair<NodeId, NodeId>> batch1 = {{0, 3}};
  std::vector<std::pair<NodeId, NodeId>> both = batch1;
  both.emplace_back(0, 4);
  const std::vector<std::vector<uint64_t>> legal = {
      counts_for({}), counts_for(batch1), counts_for(both)};

  constexpr int kClients = 4;
  constexpr int kRounds = 40;
  std::atomic<int> failures{0};
  std::atomic<int> bad_counts{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      QueryClient client;
      std::string error;
      if (!client.ConnectUnix(config_.unix_path, &error)) {
        ++failures;
        return;
      }
      while (!go.load()) std::this_thread::yield();
      for (int r = 0; r < kRounds; ++r) {
        const size_t pick = static_cast<size_t>(c + r) % patterns.size();
        QueryRequest req;
        req.patterns = {patterns[pick]};
        auto resp = client.Query(req, &error);
        if (!resp.has_value() || resp->status != StatusCode::kOk) {
          ++failures;
          return;
        }
        const uint64_t n = resp->results[0].num_occurrences;
        bool ok = false;
        for (const std::vector<uint64_t>& gen : legal) {
          if (n == gen[pick]) ok = true;
        }
        if (!ok) ++bad_counts;
      }
    });
  }

  go.store(true);
  QueryClient refresher;
  std::string error;
  ASSERT_TRUE(refresher.ConnectUnix(config_.unix_path, &error)) << error;
  AppendBatch(batch1);
  auto r1 = refresher.Refresh(&error);
  ASSERT_TRUE(r1.has_value()) << error;
  EXPECT_EQ(r1->status, StatusCode::kOk) << r1->error;
  AppendBatch({{0, 4}});
  auto r2 = refresher.Refresh(&error);
  ASSERT_TRUE(r2.has_value()) << error;
  EXPECT_EQ(r2->status, StatusCode::kOk) << r2->error;

  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(bad_counts.load(), 0);
  EXPECT_EQ(server_->Snapshot().errors, 0u);
}

TEST(CacheDisabled, ZeroBudgetServesWithoutCaching) {
  Graph graph = PaperExample::MakeGraph();
  GmEngine engine(graph);
  auto catalog = std::make_shared<EngineCatalog>();
  catalog->set_cache_bytes(0);
  catalog->AdoptEngine("default", engine);
  ServerConfig config;
  config.unix_path = UniqueSocketPath();
  config.num_workers = 2;
  QueryServer server(catalog, config);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  QueryClient client;
  ASSERT_TRUE(client.ConnectUnix(config.unix_path, &error)) << error;
  QueryRequest req;
  req.patterns = {"(a:0)->(b:1), (a)->(c:2), (b)=>(c)"};
  for (int round = 0; round < 3; ++round) {
    auto resp = client.Query(req, &error);
    ASSERT_TRUE(resp.has_value()) << error;
    ASSERT_EQ(resp->status, StatusCode::kOk);
    EXPECT_EQ(resp->results[0].num_occurrences, 4u);
  }
  StatsResponse stats = server.Snapshot();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.cache_entries, 0u);
  server.Stop();
}

TEST_F(CacheRefreshTest, StatsResponseCarriesCacheAndFlushCounters) {
  QueryClient client;
  std::string error;
  ASSERT_TRUE(client.ConnectUnix(config_.unix_path, &error)) << error;
  QueryRequest req;
  req.patterns = {"(a:0)->(b:1)"};
  ASSERT_TRUE(client.Query(req, &error).has_value()) << error;
  ASSERT_TRUE(client.Query(req, &error).has_value()) << error;
  auto stats = client.Stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->cache_misses, 1u);
  EXPECT_GE(stats->cache_hits, 1u);
  EXPECT_GE(stats->cache_entries, 1u);
  EXPECT_GT(stats->cache_bytes_used, 0u);
  EXPECT_GT(stats->flushes, 0u);
  EXPECT_GE(stats->frames_flushed, stats->flushes);
  ASSERT_EQ(stats->tenants.size(), 1u);
  EXPECT_EQ(stats->tenants[0].misses, 1u);
}

}  // namespace
}  // namespace rigpm
