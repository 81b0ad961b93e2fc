#include "server/result_cache.h"

#include <algorithm>
#include <utility>

#include "util/serde.h"

namespace rigpm::server {

ResultCache::ResultCache(uint64_t max_bytes, uint32_t num_shards)
    : max_bytes_(max_bytes),
      num_shards_(std::max(1u, num_shards)),
      shard_budget_(max_bytes_ / std::max(1u, num_shards)),
      shards_(new Shard[std::max(1u, num_shards)]) {}

ResultCache::Shard& ResultCache::ShardFor(const std::string& key) {
  // One digest of the whole key picks the shard.
  uint64_t h = Checksum64(key.data(), key.size(), 0x082efa98ec4e6c89ull);
  return shards_[h % num_shards_];
}

uint64_t ResultCache::EntryBytes(const std::string& key, const Value& value) {
  // Accounting approximation: the dominant payloads (key bytes, echoed
  // tuples, per-query result rows) plus a fixed overhead for the list and
  // map nodes. Phase-timing strings are small and bounded; close enough
  // for a budget knob.
  uint64_t bytes = sizeof(Entry) + 2 * key.size() + 128;
  bytes += value->error.size();
  bytes += value->tuples.size() * sizeof(NodeId);
  for (const QueryResultWire& r : value->results) {
    bytes += sizeof(QueryResultWire);
    for (const PhaseTimingWire& t : r.phase_timings) {
      bytes += sizeof(PhaseTimingWire) + t.name.size();
    }
  }
  return bytes;
}

ResultCache::Value ResultCache::Lookup(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->value;
}

void ResultCache::Insert(Shard& shard, const std::string& key,
                         const Value& value) {
  const uint64_t bytes = EntryBytes(key, value);
  if (bytes > shard_budget_) return;  // never evict the whole shard for one
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.map.find(key) != shard.map.end()) return;  // raced: keep first
  while (shard.bytes + bytes > shard_budget_ && !shard.lru.empty()) {
    Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.map.erase(victim.key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.lru.push_front(Entry{key, value, bytes});
  shard.map.emplace(key, shard.lru.begin());
  shard.bytes += bytes;
  inserts_.fetch_add(1, std::memory_order_relaxed);
}

ResultCache::Value ResultCache::GetOrCompute(
    const std::string& key, const std::function<Value()>& compute) {
  Shard& shard = ShardFor(key);
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second->value;
    }
    auto fit = shard.flights.find(key);
    if (fit != shard.flights.end()) {
      flight = fit->second;
    } else {
      flight = std::make_shared<Flight>();
      shard.flights.emplace(key, flight);
      leader = true;
    }
  }

  if (!leader) {
    singleflight_waits_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(flight->mu);
    flight->cv.wait(lock, [&] { return flight->done; });
    return flight->value;
  }

  // Leader: evaluate with no cache lock held, publish to waiters, insert.
  // The flight is removed before publishing so a failed compute (null or
  // throw) lets the next request retry cold instead of caching the failure.
  misses_.fetch_add(1, std::memory_order_relaxed);
  Value value;
  try {
    value = compute();
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.flights.erase(key);
    }
    {
      std::lock_guard<std::mutex> lock(flight->mu);
      flight->done = true;  // value stays null: waiters see the failure
    }
    flight->cv.notify_all();
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.flights.erase(key);
  }
  if (value != nullptr) Insert(shard, key, value);
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->value = value;
    flight->done = true;
  }
  flight->cv.notify_all();
  return value;
}

ResultCacheStats ResultCache::Stats() const {
  ResultCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.inserts = inserts_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.singleflight_waits =
      singleflight_waits_.load(std::memory_order_relaxed);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mu);
    stats.bytes_used += shards_[s].bytes;
    stats.entries += shards_[s].lru.size();
  }
  return stats;
}

}  // namespace rigpm::server
