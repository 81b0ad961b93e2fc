#ifndef RIGPM_SERVER_RESULT_CACHE_H_
#define RIGPM_SERVER_RESULT_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "server/protocol.h"

namespace rigpm::server {

/// Default byte budget of a tenant's result cache (--cache-bytes).
inline constexpr uint64_t kDefaultResultCacheBytes = 64ull << 20;

/// Point-in-time counters of one ResultCache (per-tenant; the server sums
/// them into the global stats tail).
struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;    // cold computes (one per singleflight group)
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  uint64_t singleflight_waits = 0;  // requests that joined a miss in flight
  uint64_t bytes_used = 0;
  uint64_t entries = 0;
};

/// Memory-bounded query-result cache, one instance per EngineState
/// generation (server/catalog.h): a refresh or eviction publishes a new
/// state — and with it a fresh empty cache — so invalidation is the RCU
/// swap itself, with no epoch counter for a hit to race against.
///
/// Keys are the query request's body bytes as received, followed by the
/// server's tuple cap, ServerConfig::max_return_tuples (see CacheKey in
/// server.cc), never bare hashes: a hash collision here would silently
/// serve the wrong result, so the full key is compared on every probe.
/// The body holds the request's own cap, so no decoded field is needed:
/// the server probes before it decodes. Only a byte-identical request
/// shares an entry; a permuted declaration of the same pattern numbers its
/// nodes differently, so its tuples differ and it keys apart.
/// Values are shared immutable responses — a hit hands back the same
/// QueryResponse object that was inserted, serialized fresh per
/// connection.
///
/// Sharded LRU under a byte budget: each shard owns 1/num_shards of the
/// budget, its own lock, its own LRU list, and its own singleflight map —
/// N concurrent identical cold queries compute once (the leader evaluates
/// outside every lock; waiters block on the flight's condvar and share the
/// result). The 64-deep pipelines the epoll core admits make this the
/// difference between one evaluation and sixty-four.
class ResultCache {
 public:
  using Value = std::shared_ptr<const QueryResponse>;

  explicit ResultCache(uint64_t max_bytes, uint32_t num_shards = 8);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Probe without computing: returns the cached value (counting a hit and
  /// bumping LRU recency) or null. Never blocks on a flight and does NOT
  /// count a miss — the server's event loop answers hits with it and hands
  /// a miss to a worker, which follows up with GetOrCompute on the same
  /// key.
  Value Lookup(const std::string& key);

  /// The cache transaction: a hit returns the cached value; a miss runs
  /// `compute` ONCE across all concurrent callers of the same key (leader
  /// computes with no cache lock held, waiters block and share), inserts
  /// the result under the byte budget (evicting LRU entries to fit;
  /// oversized results are returned but never stored), and returns it.
  /// A null or throwing compute is propagated to every waiter of the
  /// flight and nothing is cached.
  Value GetOrCompute(const std::string& key,
                     const std::function<Value()>& compute);

  ResultCacheStats Stats() const;

  uint64_t max_bytes() const { return max_bytes_; }

 private:
  struct Entry {
    std::string key;
    Value value;
    uint64_t bytes = 0;
  };

  /// One in-flight cold compute; concurrent requests for the same key park
  /// on `cv` until the leader publishes.
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Value value;
  };

  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<std::string, std::list<Entry>::iterator> map;
    std::unordered_map<std::string, std::shared_ptr<Flight>> flights;
    uint64_t bytes = 0;
  };

  Shard& ShardFor(const std::string& key);
  /// Inserts under the shard budget (caller must NOT hold the shard lock).
  void Insert(Shard& shard, const std::string& key, const Value& value);
  static uint64_t EntryBytes(const std::string& key, const Value& value);

  const uint64_t max_bytes_;
  const uint32_t num_shards_;
  const uint64_t shard_budget_;
  std::unique_ptr<Shard[]> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> singleflight_waits_{0};
};

}  // namespace rigpm::server

#endif  // RIGPM_SERVER_RESULT_CACHE_H_
