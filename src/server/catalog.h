#ifndef RIGPM_SERVER_CATALOG_H_
#define RIGPM_SERVER_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/gm_engine.h"
#include "graph/graph.h"
#include "server/result_cache.h"
#include "storage/lineage.h"
#include "storage/snapshot_io.h"

namespace rigpm::server {

/// One immutable served unit — the RCU payload behind every query. A
/// refresh (or a catalog reopen) publishes a new instance; queries in
/// flight pin the old one via shared_ptr until they return, so nothing
/// blocks and no engine is destroyed under a running evaluation.
struct EngineState {
  std::shared_ptr<const Graph> graph;      // null when the engine aliases a
                                           // caller-owned graph (AdoptEngine)
  std::shared_ptr<const GmEngine> engine;  // never null
  uint64_t applied_seqno = 0;
  /// Chain checksum of the delta record at applied_seqno (0 before any
  /// replay). The next refresh verifies the log still carries this exact
  /// prefix — resuming by seqno alone would silently skip a log that was
  /// truncated and rewritten with reused sequence numbers.
  uint64_t applied_chain = 0;
  /// Stored payload checksum of the base snapshot this engine descends
  /// from (0 for adopted engines, which have no snapshot and no log).
  /// Refreshes reject a delta log bound to a different base.
  uint64_t base_checksum = 0;
  /// Byte offset just past the last applied log record (0 while no log
  /// exists). The maintenance poll compares the log's on-disk size with
  /// it: equal means caught up without reading a byte, any other size
  /// means a refresh.
  uint64_t applied_end_offset = 0;
  /// Query-result cache for THIS generation (null when caching is off).
  /// Living on the state means invalidation is the RCU swap itself: a
  /// refresh publishes a successor with a fresh empty cache, in-flight
  /// hits on the old generation stay consistent with the engine they were
  /// computed on, and evicting the tenant drops the cache with it.
  std::shared_ptr<ResultCache> cache;
};

/// Where a tenant's engine comes from: a snapshot on disk, optionally with
/// a delta log replayed over it. The catalog opens the source lazily on
/// first request and can reopen it after an eviction — which is why the
/// source, not the engine, is what registration hands over.
struct EngineSource {
  std::string snapshot_path;
  /// Optional delta log (storage/delta_log.h). Non-empty enables per-tenant
  /// kRefresh; a lazy open replays the ENTIRE current log so an evicted-
  /// and-reopened tenant serves exactly what it served before eviction,
  /// never a time-traveled base.
  std::string delta_path;
  SnapshotIoMode io_mode = DefaultSnapshotIoMode();
  /// kRead by default: a live log can be tail-truncated in place by a
  /// recovering DeltaWriter, and shrinking a file under a live mapping
  /// raises SIGBUS in the reader — a read copy of a small log cannot be
  /// yanked away mid-replay.
  SnapshotIoMode delta_io = SnapshotIoMode::kRead;
};

/// Per-tenant row of the stats response (StatsResponse::tenants).
struct TenantInfo {
  std::string id;
  bool resident = false;     // engine currently open in the catalog
  bool refreshable = false;  // has a delta source
  uint64_t applied_seqno = 0;
  uint64_t queries = 0;  // queries served for this tenant since start
  /// Result-cache counters of the CURRENT generation (all zero when the
  /// tenant is non-resident or caching is off). Reset by design at every
  /// refresh — the cache is generation-scoped.
  ResultCacheStats cache;
};

/// Point-in-time catalog counters.
struct CatalogStats {
  uint64_t registered = 0;
  uint64_t resident = 0;
  uint64_t hits = 0;       // Acquire found the engine open, or CountHit
  uint64_t misses = 0;     // Acquire had to open (or reopen) the source
  uint64_t evictions = 0;  // resident engines dropped by the LRU cap
};

/// What a per-tenant refresh did (the server translates this into a
/// RefreshResponse; the catalog itself stays protocol-free).
struct CatalogRefreshResult {
  bool ok = false;
  /// On failure: true for client-addressable mistakes (unknown tenant, no
  /// delta configured, wrong base, rewritten prefix), false for I/O or
  /// corruption trouble the client cannot fix.
  bool bad_request = false;
  std::string error;
  uint64_t records_applied = 0;
  uint64_t edges_in_records = 0;  // ops in applied records
  uint64_t delete_ops = 0;        // of which deletes
  uint64_t last_seqno = 0;
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
  bool log_truncated = false;
};

/// When the daemon maintains its tenants on its own (git `gc --auto`
/// style): thresholds for background refresh and auto-compaction.
struct MaintenancePolicy {
  /// Compact a tenant when its delta log's on-disk bytes exceed this
  /// fraction of its base snapshot's (replaying most of the graph again on
  /// every open is when a re-snapshot pays for itself). 0 disables
  /// auto-compaction.
  double auto_compact_ratio = 0.0;
  /// Poll period of the daemon's maintenance thread; 0 = no thread. The
  /// thread belongs to QueryServer — the catalog only stores the policy
  /// and exposes RunMaintenance() for it (and for tests) to call.
  uint32_t interval_ms = 0;
};

/// Lifetime maintenance counters (the wire stats tail).
struct MaintenanceStats {
  uint64_t auto_refreshes = 0;    // background polls that applied records
  uint64_t auto_compactions = 0;  // compactions the policy triggered
  uint64_t bytes_reclaimed = 0;   // old generations' bytes unlinked
  uint64_t deletes_applied = 0;   // delete ops a refresh applied to a
                                  // resident tenant (opens do not count)
  uint64_t failures = 0;  // poll actions that failed: a refused refresh, a
                          // failed lineage resolve, a failed compaction
};

/// What one compaction did.
struct CatalogCompactionResult {
  bool ok = false;
  /// ok && skipped: nothing wrong, but compaction could not run right now
  /// — an external appender holds the log's flock, or no log exists yet.
  bool skipped = false;
  std::string error;
  uint64_t generation = 0;
  uint64_t bytes_reclaimed = 0;
  std::string snapshot_path;  // the new generation's files
  std::string delta_path;
};

/// The daemon-level lookup facade of the multi-tenant ROADMAP item: many
/// engines behind one id-keyed catalog, the way an object store puts many
/// packs behind one lookup interface. Tenants are registered up front
/// (id -> EngineSource); engines are opened lazily on first Acquire, held
/// behind the RCU EngineState, and — when a max_engines cap is set —
/// evicted least-recently-used. Eviction only drops the catalog's
/// reference: requests in flight keep their shared_ptr pins, so a victim
/// engine finishes its queries and is freed when the last pin drops.
///
/// Locking: the catalog mutex guards the id map and the LRU clock and is
/// never held across an open or a replay. Each entry carries two mutexes —
/// a brief `state_mu` around the published-state pointer, and a long
/// `open_mu` serializing that tenant's opens and refreshes. Acquire on a
/// resident tenant touches only the brief locks, so queries never wait on
/// another tenant's cold open or on a refresh in progress.
class EngineCatalog {
 public:
  /// max_engines caps RESIDENT engines (0 = unlimited). Adopted engines
  /// are pinned residents: they have no source to reopen from and are
  /// never evicted (nor do they count against the cap). Registered
  /// tenants — the default one included — all count.
  explicit EngineCatalog(uint32_t max_engines = 0);

  EngineCatalog(const EngineCatalog&) = delete;
  EngineCatalog& operator=(const EngineCatalog&) = delete;

  /// Adds a tenant served from a snapshot source. The first tenant
  /// registered (or adopted) becomes the default for unaddressed requests.
  /// Fails on a duplicate id or an empty snapshot path.
  bool Register(const std::string& id, EngineSource source,
                std::string* error = nullptr);

  /// Adds a tenant around a caller-owned, in-memory engine (which must
  /// outlive the catalog): `serve --graph FILE` and tests. It has no
  /// source, so it is never refreshed, compacted, or evicted. Anything
  /// backed by a snapshot (and optionally a delta log) goes through
  /// Register, so every open of it replays the same base + log.
  bool AdoptEngine(const std::string& id, const GmEngine& engine,
                   std::string* error = nullptr);

  /// Resolves an id ("" = default tenant) to its served state, opening the
  /// source on first use. Returns null (and fills *error) for an unknown
  /// id or a failed open. The returned shared_ptr is the caller's pin:
  /// eviction or refresh never invalidates it.
  std::shared_ptr<const EngineState> Acquire(const std::string& id,
                                             std::string* error = nullptr);

  /// Acquire for a thread that must never open a source (the server's
  /// event loop): pins the tenant's served state only when it is resident.
  /// Null for an unknown id and for a tenant that is not open; the caller
  /// hands those to Acquire. The pin is neither counted nor marked used:
  /// its caller does both with CountHit, which the server calls once the
  /// request is known valid, so a rejected request counts no hit and
  /// leaves the LRU order as it was.
  std::shared_ptr<const EngineState> PinResident(const std::string& id);

  /// Counts a PinResident pin that serves a request as one catalog hit on
  /// the tenant ("" = default), and marks the tenant used for the LRU
  /// evictor, as Acquire does.
  void CountHit(const std::string& id);

  /// Drops `*pin` only when that cannot free the state: the tenant still
  /// publishes it, checked and dropped under the lock every swap of the
  /// published state takes, so the catalog's own reference outlives the
  /// drop. Returns false and leaves `*pin` as it was once a refresh,
  /// compaction or eviction has replaced the state; the pin may then be
  /// its last reference.
  bool ReleaseIfPublished(const std::string& id,
                          std::shared_ptr<const EngineState>* pin);

  /// Replays the tenant's delta log records past the applied prefix and
  /// publishes the merged engine — kRefresh, scoped to one tenant; every
  /// other tenant's engine is untouched. The log is re-validated from its
  /// header (ReadDeltaSince), which is what refuses a log rewritten in
  /// place. A refresh of a non-resident tenant opens it the way Acquire
  /// does, bare base then the whole log, so its response reports exact
  /// record counts. Per-tenant serialized:
  /// concurrent refreshes of the SAME tenant queue, the second finding the
  /// log already applied; refreshes of different tenants run concurrently.
  CatalogRefreshResult Refresh(const std::string& id);

  /// Folds the tenant's delta log into a new base snapshot generation and
  /// re-points serving at it — the delta-log answer to `git gc`:
  ///   1. flock the current log (fences external appenders; a held lock
  ///      means a live appender, and the compaction politely skips),
  ///   2. drain the log tail into the served engine (a refresh),
  ///   3. write generation N+1 files — `<snapshot>.gN+1` (SaveEngineSnapshot
  ///      of the served engine) and `<delta>.gN+1` (a fresh empty log bound
  ///      to the new base checksum),
  ///   4. publish the `<snapshot>.head` lineage pointer (THE atomic commit:
  ///      a crash anywhere before this leaves the old lineage fully
  ///      intact, and stale generation files are swept by the next run),
  ///   5. republish the tenant's EngineState with the new storage identity
  ///      (same graph/engine/cache — the data did not change, so in-flight
  ///      queries and cached results stay valid) and unlink the old
  ///      generation's files.
  /// Requires a registered snapshot + delta source. Caller-facing (tests,
  /// future admin RPC); RunMaintenance calls it when the policy trips.
  CatalogCompactionResult Compact(const std::string& id);

  void SetMaintenancePolicy(const MaintenancePolicy& policy);
  MaintenancePolicy maintenance_policy() const;
  MaintenanceStats maintenance_stats() const;

  /// One background maintenance pass over every refreshable RESIDENT
  /// tenant (cold tenants catch up in their lazy open): one stat() of the
  /// log per tenant, a refresh for the ones whose size is new — neither the
  /// applied end offset nor the size an earlier pass read — and, when the
  /// policy's ratio trips, a compaction. A refresh it refuses (wrong base,
  /// rewritten or corrupt log) leaves the tenant serving what it served and
  /// is counted in MaintenanceStats::failures; the log is not read again
  /// until its size changes, and no compaction drains it meanwhile.
  /// Returns how many tenants it acted on. The server's maintenance thread
  /// calls this every `interval_ms`; tests call it directly for
  /// determinism.
  uint32_t RunMaintenance();

  /// Attributes `n` served queries to the tenant ("" = default).
  void CountQuery(const std::string& id, uint64_t n = 1);

  /// Every tenant, sorted by id.
  std::vector<TenantInfo> List() const;

  CatalogStats Stats() const;

  bool Has(const std::string& id) const;

  /// Per-tenant result-cache byte budget attached to engines opened (or
  /// refreshed) from now on; 0 disables caching for them. Configure before
  /// serving starts — already-resident generations keep the cache they
  /// were built with.
  void set_cache_bytes(uint64_t bytes) {
    cache_bytes_.store(bytes, std::memory_order_relaxed);
  }
  uint64_t cache_bytes() const {
    return cache_bytes_.load(std::memory_order_relaxed);
  }

  /// Id serving unaddressed requests: the first registered (or adopted)
  /// tenant; "" while nothing is registered.
  std::string default_id() const;

 private:
  struct Entry {
    std::string id;
    EngineSource source;
    bool adopted = false;
    std::atomic<uint64_t> queries{0};
    uint64_t last_used = 0;  // catalog LRU clock; guarded by catalog mu_

    /// Serializes this tenant's opens and refreshes (held across the whole
    /// load/replay). Never acquired while holding mu_ or state_mu.
    std::mutex open_mu;
    /// Brief guard around the published state pointer only.
    mutable std::mutex state_mu;
    std::shared_ptr<const EngineState> state;  // null = not resident

    /// Current storage lineage (which generation's files to open); guarded
    /// by open_mu. `source` keeps the CONFIGURED paths — the head file is
    /// named after source.snapshot_path and resolved lazily on first open,
    /// then kept current in memory by Compact (the daemon is the only
    /// compactor of a live tenant; external appenders follow the head).
    Lineage lineage;
    bool lineage_resolved = false;

    /// The size of the current lineage's log when a maintenance pass last
    /// read it, and whether that read was refused; guarded by open_mu.
    uint64_t polled_log_size = 0;
    bool polled_log_refused = false;
  };

  /// "" resolves to the default id. Bumps the LRU clock on hit.
  std::shared_ptr<Entry> FindAndTouch(const std::string& id);
  std::shared_ptr<Entry> Find(const std::string& id) const;
  std::shared_ptr<const EngineState> StateOf(const Entry& e) const;
  /// StateOf that counts a catalog hit when the tenant is resident.
  std::shared_ptr<const EngineState> PinIfResident(const Entry& e);
  /// A fresh generation-scoped cache, or null when cache_bytes() is 0.
  std::shared_ptr<ResultCache> MakeCache() const;
  /// Resolves e.lineage from the head file on first use. Holds e.open_mu.
  bool ResolveEntryLineage(Entry& e, std::string* error);
  /// The one path from storage to a served state; caller holds e.open_mu.
  /// A non-resident tenant first opens its bare base snapshot (counted as
  /// a miss); then every log record past the applied prefix is read
  /// (ReadDeltaSince) and applied, and the result published. Acquire's
  /// open, Refresh, RunMaintenance and Compact's drain all call it. On
  /// success *serving (when non-null) is the state the tenant now serves.
  CatalogRefreshResult RefreshLocked(
      Entry& e, std::shared_ptr<const EngineState>* serving = nullptr);
  CatalogCompactionResult CompactLocked(Entry& e);
  /// Evicts least-recently-used evictable residents until the cap holds;
  /// `keep` (the entry just touched) is never the victim.
  void EnforceCap(const Entry* keep);

  const uint32_t max_engines_;

  mutable std::mutex mu_;  // entries_ map, LRU clock, default id
  std::unordered_map<std::string, std::shared_ptr<Entry>> entries_;
  uint64_t clock_ = 0;
  std::string default_id_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> cache_bytes_{kDefaultResultCacheBytes};

  MaintenancePolicy policy_;  // guarded by mu_
  std::atomic<uint64_t> auto_refreshes_{0};
  std::atomic<uint64_t> auto_compactions_{0};
  std::atomic<uint64_t> bytes_reclaimed_{0};
  std::atomic<uint64_t> deletes_applied_{0};
  std::atomic<uint64_t> maintenance_failures_{0};
};

}  // namespace rigpm::server

#endif  // RIGPM_SERVER_CATALOG_H_
