#include "server/catalog.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "storage/delta_log.h"
#include "storage/snapshot.h"

namespace rigpm::server {

namespace {

void SetError(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

struct FdCloser {
  int fd;
  ~FdCloser() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

EngineCatalog::EngineCatalog(uint32_t max_engines)
    : max_engines_(max_engines) {}

bool EngineCatalog::Register(const std::string& id, EngineSource source,
                             std::string* error) {
  if (id.empty()) {
    SetError(error, "tenant id must not be empty");
    return false;
  }
  if (source.snapshot_path.empty()) {
    SetError(error, "tenant \"" + id + "\" needs a snapshot path");
    return false;
  }
  auto entry = std::make_shared<Entry>();
  entry->id = id;
  entry->source = std::move(source);
  std::lock_guard<std::mutex> lock(mu_);
  if (!entries_.emplace(id, std::move(entry)).second) {
    SetError(error, "tenant \"" + id + "\" is already registered");
    return false;
  }
  if (default_id_.empty()) default_id_ = id;
  return true;
}

bool EngineCatalog::AdoptEngine(const std::string& id, const GmEngine& engine,
                                std::string* error) {
  if (id.empty()) {
    SetError(error, "tenant id must not be empty");
    return false;
  }
  auto state = std::make_shared<EngineState>();
  // Alias the caller's engine (which must outlive the catalog).
  state->engine =
      std::shared_ptr<const GmEngine>(std::shared_ptr<const GmEngine>(),
                                      &engine);
  state->cache = MakeCache();
  auto entry = std::make_shared<Entry>();
  entry->id = id;
  entry->adopted = true;
  entry->state = std::move(state);
  std::lock_guard<std::mutex> lock(mu_);
  if (!entries_.emplace(id, std::move(entry)).second) {
    SetError(error, "tenant \"" + id + "\" is already registered");
    return false;
  }
  if (default_id_.empty()) default_id_ = id;
  return true;
}

std::shared_ptr<EngineCatalog::Entry> EngineCatalog::FindAndTouch(
    const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string& key = id.empty() ? default_id_ : id;
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  it->second->last_used = ++clock_;
  return it->second;
}

std::shared_ptr<EngineCatalog::Entry> EngineCatalog::Find(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string& key = id.empty() ? default_id_ : id;
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second;
}

std::shared_ptr<const EngineState> EngineCatalog::StateOf(
    const Entry& e) const {
  std::lock_guard<std::mutex> lock(e.state_mu);
  return e.state;
}

std::shared_ptr<const EngineState> EngineCatalog::PinIfResident(
    const Entry& e) {
  std::shared_ptr<const EngineState> state = StateOf(e);
  if (state != nullptr) hits_.fetch_add(1, std::memory_order_relaxed);
  return state;
}

std::shared_ptr<ResultCache> EngineCatalog::MakeCache() const {
  uint64_t bytes = cache_bytes();
  if (bytes == 0) return nullptr;
  return std::make_shared<ResultCache>(bytes);
}

std::shared_ptr<const EngineState> EngineCatalog::Acquire(
    const std::string& id, std::string* error) {
  std::shared_ptr<Entry> entry = FindAndTouch(id);
  if (entry == nullptr) {
    SetError(error, "unknown graph id \"" + (id.empty() ? default_id() : id) +
                        "\"");
    return nullptr;
  }
  if (auto state = PinIfResident(*entry)) return state;
  // Cold (or evicted) tenant: open under the entry's open_mu so concurrent
  // first requests load the snapshot once, while requests for OTHER
  // tenants proceed untouched (no catalog-wide lock is held here).
  std::lock_guard<std::mutex> open_lock(entry->open_mu);
  if (auto state = PinIfResident(*entry)) return state;
  std::shared_ptr<const EngineState> opened;
  CatalogRefreshResult r = RefreshLocked(*entry, &opened);
  if (!r.ok) {
    SetError(error, r.error);
    return nullptr;
  }
  return opened;
}

std::shared_ptr<const EngineState> EngineCatalog::PinResident(
    const std::string& id) {
  std::shared_ptr<Entry> entry = Find(id);
  return entry == nullptr ? nullptr : StateOf(*entry);
}

void EngineCatalog::CountHit(const std::string& id) {
  if (FindAndTouch(id) != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool EngineCatalog::ReleaseIfPublished(
    const std::string& id, std::shared_ptr<const EngineState>* pin) {
  std::shared_ptr<Entry> entry = Find(id);
  if (entry == nullptr) return false;
  std::lock_guard<std::mutex> lock(entry->state_mu);
  if (entry->state != *pin) return false;
  pin->reset();
  return true;
}

bool EngineCatalog::ResolveEntryLineage(Entry& e, std::string* error) {
  if (e.lineage_resolved) return true;
  Lineage lineage;
  std::string resolve_error;
  if (!ResolveLineage(e.source.snapshot_path, e.source.delta_path, &lineage,
                      &resolve_error)) {
    SetError(error, "cannot resolve storage lineage for graph \"" + e.id +
                        "\": " + resolve_error);
    return false;
  }
  e.lineage = std::move(lineage);
  e.lineage_resolved = true;
  return true;
}

void EngineCatalog::EnforceCap(const Entry* keep) {
  if (max_engines_ == 0) return;
  // Evict one LRU victim at a time until the cap holds. The victim's
  // engine is only unreferenced here — requests that pinned it via
  // Acquire finish normally and free it with the last pin.
  while (true) {
    std::shared_ptr<Entry> victim;
    {
      std::lock_guard<std::mutex> lock(mu_);
      uint32_t resident = 0;
      uint64_t oldest = 0;
      for (const auto& [id, entry] : entries_) {
        if (entry->adopted) continue;  // pinned: nothing to reopen from
        bool is_resident;
        {
          std::lock_guard<std::mutex> state_lock(entry->state_mu);
          is_resident = entry->state != nullptr;
        }
        if (!is_resident) continue;
        ++resident;
        if (entry.get() == keep) continue;  // just touched; never the victim
        if (victim == nullptr || entry->last_used < oldest) {
          victim = entry;
          oldest = entry->last_used;
        }
      }
      if (resident <= max_engines_ || victim == nullptr) return;
    }
    {
      std::lock_guard<std::mutex> state_lock(victim->state_mu);
      if (victim->state == nullptr) continue;  // raced with another evictor
      victim->state.reset();
    }
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

CatalogRefreshResult EngineCatalog::Refresh(const std::string& id) {
  CatalogRefreshResult result;
  std::shared_ptr<Entry> entry = FindAndTouch(id);
  if (entry == nullptr) {
    result.bad_request = true;
    result.error =
        "unknown graph id \"" + (id.empty() ? default_id() : id) + "\"";
    return result;
  }
  if (entry->source.delta_path.empty()) {
    result.bad_request = true;
    result.error = "graph \"" + entry->id +
                   "\" has no delta log configured (--delta)";
    return result;
  }

  // One refresh (or open) per tenant at a time; a second request queues
  // here and then finds the log already replayed (records_applied == 0).
  // Other tenants' refreshes and opens run concurrently.
  std::lock_guard<std::mutex> open_lock(entry->open_mu);
  return RefreshLocked(*entry);
}

CatalogRefreshResult EngineCatalog::RefreshLocked(
    Entry& e, std::shared_ptr<const EngineState>* serving) {
  CatalogRefreshResult result;
  if (!ResolveEntryLineage(e, &result.error)) return result;

  std::shared_ptr<const EngineState> old_state = StateOf(e);
  const bool newly_opened = old_state == nullptr;
  if (newly_opened) {
    // A cold tenant opens one way: its BARE base (a cheap prebuilt-index
    // deserialize; a compaction may have re-pointed the lineage at a newer
    // generation), then the catch-up below over the ENTIRE current log —
    // an open after eviction serves base + log exactly as the engine did
    // before, and a refresh reports exactly what the log contributed.
    misses_.fetch_add(1, std::memory_order_relaxed);
    LoadOptions options;
    options.io_mode = e.source.io_mode;
    std::string load_error;
    auto warm =
        LoadEngineSnapshot(e.lineage.snapshot_path, options, &load_error);
    if (!warm.has_value()) {
      result.error = "cannot open engine for graph \"" + e.id +
                     "\": " + load_error;
      return result;
    }
    auto base = std::make_shared<EngineState>();
    base->base_checksum = warm->stored_checksum;
    base->graph = std::shared_ptr<const Graph>(std::move(warm->graph));
    base->engine = std::shared_ptr<const GmEngine>(std::move(warm->engine));
    base->cache = MakeCache();
    old_state = std::move(base);
  }
  const Graph& old_graph = old_state->engine->graph();

  DeltaRead read;
  read.ok = true;  // no log configured: the base is the whole graph
  if (!e.lineage.delta_path.empty()) {
    read = ReadDeltaSince(e.lineage.delta_path, e.source.delta_io,
                          old_state->base_checksum, old_graph.NumNodes(),
                          old_state->applied_seqno, old_state->applied_chain);
  }
  if (!read.ok) {
    result.bad_request = read.mismatch;
    result.error = read.error;
    return result;
  }
  const ReplayStats& stats = read.stats;
  std::shared_ptr<const EngineState> next = old_state;
  if (stats.records_applied > 0) {
    // The successor: merged graph + a fresh reachability index.
    auto state = std::make_shared<EngineState>();
    state->graph =
        std::make_shared<const Graph>(ApplyDeltaOps(old_graph, read.ops));
    state->engine = std::make_shared<const GmEngine>(*state->graph);
    state->applied_seqno = stats.last_seqno;
    state->applied_chain = stats.end_chain;
    state->applied_end_offset = stats.end_offset;
    state->base_checksum = old_state->base_checksum;
    // A fresh EMPTY cache, never the old one: every entry of the outgoing
    // generation answered on the pre-refresh graph.
    state->cache = MakeCache();
    // An open replays deletes a served graph already had applied before
    // (an eviction, a restart); only a resident tenant's refresh counts.
    if (!newly_opened) {
      deletes_applied_.fetch_add(stats.delete_ops, std::memory_order_relaxed);
    }
    next = std::move(state);
  } else if (stats.end_offset != 0 &&
             stats.end_offset != old_state->applied_end_offset) {
    // Nothing new — but remember where the validated log ends, so the next
    // poll's size comparison answers without reading (this is what
    // bootstraps a state opened from its bare base).
    auto bumped = std::make_shared<EngineState>(*old_state);
    bumped->applied_end_offset = stats.end_offset;
    next = std::move(bumped);
  }
  if (next != old_state || newly_opened) {
    {
      std::lock_guard<std::mutex> lock(e.state_mu);
      e.state = next;
    }
    EnforceCap(&e);
  }
  result.ok = true;
  result.log_truncated = read.torn_tail;
  result.records_applied = stats.records_applied;
  result.edges_in_records = stats.edges_in_records;
  result.delete_ops = stats.delete_ops;
  result.last_seqno = next->applied_seqno;
  result.num_nodes = next->engine->graph().NumNodes();
  result.num_edges = next->engine->graph().NumEdges();
  if (serving != nullptr) *serving = std::move(next);
  return result;
}

CatalogCompactionResult EngineCatalog::Compact(const std::string& id) {
  CatalogCompactionResult result;
  std::shared_ptr<Entry> entry = FindAndTouch(id);
  if (entry == nullptr) {
    result.error =
        "unknown graph id \"" + (id.empty() ? default_id() : id) + "\"";
    return result;
  }
  if (entry->source.delta_path.empty()) {
    result.error =
        "graph \"" + entry->id + "\" has no delta log configured (--delta)";
    return result;
  }
  std::lock_guard<std::mutex> open_lock(entry->open_mu);
  return CompactLocked(*entry);
}

CatalogCompactionResult EngineCatalog::CompactLocked(Entry& e) {
  CatalogCompactionResult result;
  std::string lineage_error;
  if (!ResolveEntryLineage(e, &lineage_error)) {
    result.error = lineage_error;
    return result;
  }
  const Lineage old_lineage = e.lineage;
  result.generation = old_lineage.generation;

  // 1. Fence external appenders by taking the old log's writer flock. A
  // held lock is a live appender mid-batch; with open_mu held we must not
  // wait for it — skip this round, the next poll retries.
  int lock_fd = ::open(old_lineage.delta_path.c_str(), O_RDWR | O_CLOEXEC);
  if (lock_fd < 0) {
    if (errno == ENOENT) {
      // No log was ever created: nothing to fold in.
      result.ok = true;
      result.skipped = true;
      return result;
    }
    result.error = "cannot open delta log " + old_lineage.delta_path + ": " +
                   std::strerror(errno);
    return result;
  }
  FdCloser closer{lock_fd};
  if (::flock(lock_fd, LOCK_EX | LOCK_NB) != 0) {
    result.ok = true;
    result.skipped = true;
    return result;
  }

  // 2. Drain: appenders are fenced, so after this refresh the served
  // engine is EXACTLY base + log, and the log cannot grow under us.
  CatalogRefreshResult drained = RefreshLocked(e);
  if (!drained.ok) {
    result.error = "compaction drain failed: " + drained.error;
    return result;
  }
  std::shared_ptr<const EngineState> state = StateOf(e);
  if (state == nullptr || state->engine == nullptr) {
    result.error =
        "tenant \"" + e.id + "\" has no resident engine to snapshot";
    return result;
  }

  // 3. Write generation N+1 off to the side — first sweeping any orphaned
  // same-name files a compaction that crashed before its head publish
  // left behind.
  const uint64_t generation = old_lineage.generation + 1;
  const std::string new_snapshot =
      GenerationPath(e.source.snapshot_path, generation);
  const std::string new_delta =
      GenerationPath(e.source.delta_path, generation);
  ::unlink(new_snapshot.c_str());
  ::unlink(new_delta.c_str());
  std::string io_error;
  if (!SaveEngineSnapshot(*state->engine, new_snapshot, &io_error)) {
    result.error = "cannot write compacted snapshot: " + io_error;
    return result;
  }
  auto info = InspectSnapshot(new_snapshot, &io_error);
  if (!info.has_value()) {
    ::unlink(new_snapshot.c_str());
    result.error = "cannot read back compacted snapshot: " + io_error;
    return result;
  }
  {
    // A fresh EMPTY log bound to the new base — created eagerly so
    // appenders following the head never race its lazy creation.
    auto writer = DeltaWriter::Open(
        new_delta, info->stored_checksum,
        static_cast<uint32_t>(state->engine->graph().NumNodes()), &io_error);
    if (writer == nullptr) {
      ::unlink(new_snapshot.c_str());
      result.error = "cannot create compacted delta log: " + io_error;
      return result;
    }
  }

  uint64_t reclaimed = 0;
  struct stat st{};
  if (::stat(old_lineage.delta_path.c_str(), &st) == 0) {
    reclaimed += static_cast<uint64_t>(st.st_size);
  }
  if (old_lineage.generation > 0 &&
      ::stat(old_lineage.snapshot_path.c_str(), &st) == 0) {
    reclaimed += static_cast<uint64_t>(st.st_size);
  }

  // 4. THE commit point: the head pointer flips to the new generation in
  // one rename. A crash anywhere above leaves the old lineage fully
  // intact (plus swept-next-time orphans); a crash below re-points on
  // restart and merely re-reclaims.
  Lineage next;
  next.snapshot_path = new_snapshot;
  next.delta_path = new_delta;
  next.generation = generation;
  if (!PublishLineage(e.source.snapshot_path, next, &io_error)) {
    ::unlink(new_snapshot.c_str());
    ::unlink(new_delta.c_str());
    result.error = "cannot publish lineage head: " + io_error;
    return result;
  }

  // 5. Committed. Re-point serving — same graph/engine/cache (the data
  // did not change, only its storage identity), so in-flight queries and
  // cached results stay valid — and reclaim the old generation. The
  // configured gen-0 base snapshot is the operator's file and is never
  // unlinked; the head pointer is what routes around it.
  e.lineage = next;
  e.polled_log_size = 0;
  e.polled_log_refused = false;
  auto new_state = std::make_shared<EngineState>(*state);
  new_state->base_checksum = info->stored_checksum;
  new_state->applied_seqno = 0;
  new_state->applied_chain = 0;
  new_state->applied_end_offset = kDeltaFileHeaderBytes;
  {
    std::lock_guard<std::mutex> lock(e.state_mu);
    e.state = std::move(new_state);
  }
  ::unlink(old_lineage.delta_path.c_str());
  if (old_lineage.generation > 0) {
    ::unlink(old_lineage.snapshot_path.c_str());
  }
  bytes_reclaimed_.fetch_add(reclaimed, std::memory_order_relaxed);

  result.ok = true;
  result.generation = generation;
  result.bytes_reclaimed = reclaimed;
  result.snapshot_path = new_snapshot;
  result.delta_path = new_delta;
  return result;
}

void EngineCatalog::SetMaintenancePolicy(const MaintenancePolicy& policy) {
  std::lock_guard<std::mutex> lock(mu_);
  policy_ = policy;
}

MaintenancePolicy EngineCatalog::maintenance_policy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return policy_;
}

MaintenanceStats EngineCatalog::maintenance_stats() const {
  MaintenanceStats stats;
  stats.auto_refreshes = auto_refreshes_.load(std::memory_order_relaxed);
  stats.auto_compactions = auto_compactions_.load(std::memory_order_relaxed);
  stats.bytes_reclaimed = bytes_reclaimed_.load(std::memory_order_relaxed);
  stats.deletes_applied = deletes_applied_.load(std::memory_order_relaxed);
  stats.failures = maintenance_failures_.load(std::memory_order_relaxed);
  return stats;
}

uint32_t EngineCatalog::RunMaintenance() {
  const MaintenancePolicy policy = maintenance_policy();
  std::vector<std::shared_ptr<Entry>> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries.reserve(entries_.size());
    for (const auto& [id, entry] : entries_) entries.push_back(entry);
  }
  uint32_t actions = 0;
  auto count_failure = [this] {
    maintenance_failures_.fetch_add(1, std::memory_order_relaxed);
  };
  for (const auto& entry : entries) {
    if (entry->source.delta_path.empty()) continue;
    {
      // Maintain RESIDENT tenants only: a cold tenant catches up in its
      // lazy open, and waking it here would fight the LRU cap.
      std::lock_guard<std::mutex> state_lock(entry->state_mu);
      if (entry->state == nullptr) continue;
    }
    std::lock_guard<std::mutex> open_lock(entry->open_mu);
    std::string error;
    if (!ResolveEntryLineage(*entry, &error)) {
      count_failure();
      continue;
    }
    std::shared_ptr<const EngineState> state = StateOf(*entry);
    if (state == nullptr) continue;  // evicted while we waited

    // The O(1) poll: on-disk size vs applied end offset and vs the size an
    // earlier pass read. Equal to the first means caught up; equal to the
    // second means nothing changed since a pass read it (a refused log, or
    // one ending in a torn append), so neither is read again. Any other
    // size gets the refresh every other path takes, which re-validates the
    // log from its header. (A same-size rewrite in place is invisible to
    // this check; a client --refresh always reads the log and catches it.)
    struct stat st{};
    const bool have_log =
        ::stat(entry->lineage.delta_path.c_str(), &st) == 0 && st.st_size > 0;
    const uint64_t log_size = have_log ? static_cast<uint64_t>(st.st_size) : 0;
    if (have_log && log_size != state->applied_end_offset &&
        log_size != entry->polled_log_size) {
      CatalogRefreshResult r = RefreshLocked(*entry);
      entry->polled_log_size = log_size;
      entry->polled_log_refused = !r.ok;
      if (!r.ok) {
        count_failure();
      } else if (r.records_applied > 0) {
        auto_refreshes_.fetch_add(1, std::memory_order_relaxed);
        ++actions;
      }
    }
    // A compaction's drain would only meet the refusal again.
    const bool refused =
        entry->polled_log_refused && log_size == entry->polled_log_size;
    if (policy.auto_compact_ratio > 0 && have_log && !refused) {
      struct stat log_st{};
      struct stat base_st{};
      if (::stat(entry->lineage.delta_path.c_str(), &log_st) == 0 &&
          ::stat(entry->lineage.snapshot_path.c_str(), &base_st) == 0 &&
          static_cast<double>(log_st.st_size) >
              policy.auto_compact_ratio *
                  static_cast<double>(base_st.st_size)) {
        CatalogCompactionResult c = CompactLocked(*entry);
        if (!c.ok) {
          count_failure();
        } else if (!c.skipped) {
          auto_compactions_.fetch_add(1, std::memory_order_relaxed);
          ++actions;
        }
      }
    }
  }
  return actions;
}

void EngineCatalog::CountQuery(const std::string& id, uint64_t n) {
  std::shared_ptr<Entry> entry = Find(id);
  if (entry != nullptr) {
    entry->queries.fetch_add(n, std::memory_order_relaxed);
  }
}

std::vector<TenantInfo> EngineCatalog::List() const {
  std::vector<std::shared_ptr<Entry>> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries.reserve(entries_.size());
    for (const auto& [id, entry] : entries_) entries.push_back(entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a->id < b->id; });
  std::vector<TenantInfo> infos;
  infos.reserve(entries.size());
  for (const auto& entry : entries) {
    TenantInfo info;
    info.id = entry->id;
    info.refreshable = !entry->source.delta_path.empty();
    info.queries = entry->queries.load(std::memory_order_relaxed);
    if (auto state = StateOf(*entry)) {
      info.resident = true;
      info.applied_seqno = state->applied_seqno;
      if (state->cache != nullptr) info.cache = state->cache->Stats();
    }
    infos.push_back(std::move(info));
  }
  return infos;
}

CatalogStats EngineCatalog::Stats() const {
  CatalogStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  stats.registered = entries_.size();
  for (const auto& [id, entry] : entries_) {
    std::lock_guard<std::mutex> state_lock(entry->state_mu);
    if (entry->state != nullptr) ++stats.resident;
  }
  return stats;
}

bool EngineCatalog::Has(const std::string& id) const {
  return Find(id) != nullptr;
}

std::string EngineCatalog::default_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return default_id_;
}

}  // namespace rigpm::server
