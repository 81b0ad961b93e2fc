#ifndef RIGPM_SERVER_PROTOCOL_H_
#define RIGPM_SERVER_PROTOCOL_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/serde.h"

namespace rigpm::server {

/// Wire protocol of the rigpm query daemon (server/server.h): length-prefixed
/// binary frames whose payloads are encoded with the same ByteSink/ByteSource
/// primitives the snapshot subsystem uses (util/serde.h). Like snapshots,
/// frames are host-endian and same-machine/same-build only — this is a
/// serving IPC protocol, not an interchange format.
///
/// Framing (both directions):
///   u32      payload length in bytes (at most the frame cap; a payload too
///            short to hold its message type draws an error response)
///   payload  u32 message type, then the type-specific body
///
/// A connection carries any number of request/response pairs; the server
/// answers every well-formed frame with exactly one response frame and
/// answers malformed-but-framed requests with an error response. Only an
/// oversized length prefix (which poisons the stream position) closes the
/// connection.
///
/// Envelopes compose in a fixed order (outermost first):
///   kTaggedRequest  — u64 request id, then the wrapped payload
///   kScopedRequest  — graph-id string, then the wrapped payload
///   the actual request (kQueryRequest, kRefreshRequest, ...)
/// Tagging stays outermost because the event loop peeks only the first u32
/// of a frame for pipeline admission. An unaddressed (unscoped) request is
/// served by the daemon's default graph.
///
/// Client and daemon are the same build, so every payload has exactly one
/// layout: decoders read every field and a short payload is an error,
/// never a sign of an older peer.

inline constexpr uint32_t kDefaultMaxFrameBytes = 16u << 20;

/// Protocol revision advertised in the kPingResponse body.
inline constexpr uint32_t kProtocolRevision = 2;

/// Capability bits of the kPingResponse body.
inline constexpr uint32_t kCapTagged = 1u << 0;      // pipelining envelope
inline constexpr uint32_t kCapRefresh = 1u << 1;     // >=1 refreshable graph
inline constexpr uint32_t kCapScoped = 1u << 2;      // graph-addressed requests
inline constexpr uint32_t kCapListGraphs = 1u << 3;  // kListGraphsRequest

enum class MessageType : uint32_t {
  kQueryRequest = 1,
  kStatsRequest = 2,
  kPingRequest = 3,
  kShutdownRequest = 4,
  /// Asks the daemon to replay the new records of its configured delta log
  /// (storage/delta_log.h) and swap the refreshed engine in behind an
  /// RCU-style shared_ptr — in-flight queries finish on the old engine, new
  /// requests see the merged graph; no restart, no dropped connections.
  /// Empty body. Answered with kRefreshResponse (RefreshResponse below) or
  /// an error response when the daemon has no delta source configured.
  kRefreshRequest = 5,
  /// Pipelining envelope: u64 request_id, then a complete inner request
  /// payload (u32 inner type + body). A client may have many tagged frames
  /// in flight on one connection; each is answered with a kTaggedResponse
  /// carrying the same id, and responses may arrive in any order. Untagged
  /// frames keep their PR-1 semantics: one at a time, answered in order,
  /// with an untagged response (conceptually id 0).
  kTaggedRequest = 6,
  /// Tenant-addressing envelope: graph-id string, then a complete inner
  /// request payload (u32 inner type + body). Routes the inner request to
  /// the named catalog entry; an empty id means the default graph, same as
  /// no envelope at all. Composes INSIDE kTaggedRequest (see above) and
  /// never nests. The response carries no scoped envelope — it goes back
  /// on the same connection, so the addressing is implicit.
  kScopedRequest = 7,
  /// Asks for the daemon's graph catalog (ids, residency, refreshability,
  /// per-graph counters). Empty body; answered with kListGraphsResponse.
  kListGraphsRequest = 8,

  kQueryResponse = 101,
  kStatsResponse = 102,
  /// u32 protocol revision + u32 capability bits, so a client can
  /// feature-detect instead of probing with error responses.
  kPingResponse = 103,
  kShutdownResponse = 104,
  kRefreshResponse = 105,
  /// u64 request_id, then the complete inner response payload.
  kTaggedResponse = 106,
  kListGraphsResponse = 107,
  kErrorResponse = 199,
};

enum class StatusCode : uint32_t {
  kOk = 0,
  kParseError = 1,     // pattern text / unknown template
  kBadRequest = 2,     // malformed body, unknown type, oversize
  kShuttingDown = 3,   // server is draining
  kInternalError = 4,  // evaluation failed unexpectedly
};

const char* StatusCodeName(StatusCode s);

/// What a daemon advertises in its kPingResponse.
struct ServerCapabilities {
  uint32_t revision = 0;
  uint32_t capabilities = 0;

  bool tagged() const { return (capabilities & kCapTagged) != 0; }
  bool refresh() const { return (capabilities & kCapRefresh) != 0; }
  bool scoped() const { return (capabilities & kCapScoped) != 0; }
  bool list_graphs() const { return (capabilities & kCapListGraphs) != 0; }
};

/// One pattern-matching request. Either `patterns` (inline syntax of
/// query_parser.h; >1 entries are served as one EvaluateBatch call) or
/// `template_name` (one of the paper's HQ0..HQ19, instantiated against the
/// served graph's label alphabet with `template_seed`) must be set.
struct QueryRequest {
  std::vector<std::string> patterns;
  std::string template_name;
  uint64_t template_seed = 17;

  // GmOptions subset (the serving-relevant knobs).
  uint64_t limit = std::numeric_limits<uint64_t>::max();
  uint32_t num_threads = 1;
  bool use_transitive_reduction = true;
  bool use_prefilter = true;
  bool use_double_simulation = true;

  /// Echo up to this many occurrence tuples back (single-query requests
  /// only); the server additionally enforces its own cap.
  uint32_t max_return_tuples = 0;

  void Serialize(ByteSink& sink) const;
  static QueryRequest Deserialize(ByteSource& src);
};

struct PhaseTimingWire {
  std::string name;
  double ms = 0.0;
};

/// Per-query slice of a response (mirrors the GmResult fields a client can
/// act on).
struct QueryResultWire {
  uint64_t num_occurrences = 0;
  bool hit_limit = false;
  double matching_ms = 0.0;
  double enumerate_ms = 0.0;
  std::vector<PhaseTimingWire> phase_timings;
};

struct QueryResponse {
  StatusCode status = StatusCode::kOk;
  std::string error;
  std::vector<QueryResultWire> results;  // one per request pattern

  /// Flattened occurrence tuples of the first query, `tuple_arity` node ids
  /// each, capped by the request and the server.
  uint32_t tuple_arity = 0;
  std::vector<NodeId> tuples;

  uint64_t TotalOccurrences() const;

  void Serialize(ByteSink& sink) const;
  static QueryResponse Deserialize(ByteSource& src);
};

/// One catalog row, as listed by kListGraphsResponse and StatsResponse.
struct GraphInfoWire {
  std::string id;
  bool resident = false;     // engine currently open in the daemon
  bool refreshable = false;  // has a delta source (kRefresh will act)
  uint64_t applied_seqno = 0;
  uint64_t queries = 0;  // queries served for this graph since start

  void Serialize(ByteSink& sink) const;
  static GraphInfoWire Deserialize(ByteSource& src);
};

/// Per-tenant result-cache row of StatsResponse: counters of the tenant's
/// CURRENT engine generation (the cache is generation-scoped, so a refresh
/// resets them; see server/result_cache.h).
struct TenantCacheWire {
  std::string id;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  uint64_t singleflight_waits = 0;
  uint64_t bytes_used = 0;
  uint64_t entries = 0;

  void Serialize(ByteSink& sink) const;
  static TenantCacheWire Deserialize(ByteSource& src);
};

struct StatsResponse {
  uint64_t uptime_ms = 0;
  uint64_t connections_accepted = 0;
  uint64_t active_connections = 0;
  uint64_t requests_served = 0;
  uint64_t queries_served = 0;  // patterns evaluated (a batch counts each)
  uint64_t errors = 0;
  uint64_t occurrences_emitted = 0;
  uint64_t refreshes = 0;  // successful delta refreshes (engine swaps)
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;

  // Event-loop health.
  uint64_t dispatch_depth = 0;  // requests parsed but not yet on a worker
  double accept_p50_ms = 0.0;   // accept() to first response byte
  double accept_p99_ms = 0.0;

  // Engine catalog. Single-tenant daemons report one tenant.
  uint64_t graphs_registered = 0;
  uint64_t graphs_resident = 0;
  uint64_t catalog_hits = 0;
  uint64_t catalog_misses = 0;
  uint64_t catalog_evictions = 0;
  std::vector<GraphInfoWire> tenants;

  // Result cache and write coalescing. The cache_* totals sum every
  // resident tenant's current-generation cache.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_inserts = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_singleflight_waits = 0;
  uint64_t cache_bytes_used = 0;
  uint64_t cache_entries = 0;
  uint64_t flushes = 0;         // sendmsg gather calls that moved bytes
  uint64_t frames_flushed = 0;  // whole response frames those calls retired
  std::vector<TenantCacheWire> tenant_caches;
  // Maintenance counters (zero when the daemon runs without a maintenance
  // thread/policy).
  uint64_t auto_refreshes = 0;
  uint64_t auto_compactions = 0;
  uint64_t maintenance_bytes_reclaimed = 0;
  uint64_t deletes_applied = 0;

  void Serialize(ByteSink& sink) const;
  static StatsResponse Deserialize(ByteSource& src);
};

/// Answer to kListGraphsRequest: every registered graph, sorted by id,
/// plus which one serves unaddressed requests.
struct ListGraphsResponse {
  StatusCode status = StatusCode::kOk;
  std::string error;
  std::string default_id;
  std::vector<GraphInfoWire> graphs;

  void Serialize(ByteSink& sink) const;
  static ListGraphsResponse Deserialize(ByteSource& src);
};

/// Result of one kRefreshRequest. `records_applied` == 0 with status kOk
/// means the daemon was already caught up with its delta log.
struct RefreshResponse {
  StatusCode status = StatusCode::kOk;
  std::string error;
  uint64_t records_applied = 0;
  uint64_t edges_in_records = 0;  // before deduplication
  uint64_t last_seqno = 0;        // log position the daemon is now at
  uint64_t num_nodes = 0;         // served graph after the refresh
  uint64_t num_edges = 0;
  bool log_truncated = false;  // the log ended in a torn (crashed,
                               // never-acknowledged) append; its valid
                               // prefix was applied. A CORRUPT tail is an
                               // error response instead, never a swap.
  double refresh_ms = 0.0;     // replay + index rebuild + swap

  void Serialize(ByteSink& sink) const;
  static RefreshResponse Deserialize(ByteSource& src);
};

// ------------------------------------------------------------ frame I/O

enum class FrameReadStatus : uint8_t {
  kOk,        // one whole frame in *out
  kEof,       // peer closed cleanly at a frame boundary
  kStopped,   // *stop turned true while waiting
  kOversize,  // declared length exceeds max_bytes (stream is poisoned)
  kError,     // socket error or mid-frame disconnect
};

/// Reads one length-prefixed frame from `fd` into *out. Blocks, but polls in
/// short slices so a stop flag (the server's shutdown signal) interrupts the
/// wait between frames. Never allocates more than `max_bytes`.
FrameReadStatus ReadFrame(int fd, uint32_t max_bytes,
                          std::vector<uint8_t>* out, std::string* error,
                          const std::atomic<bool>* stop = nullptr);

/// Writes the length prefix and `payload` to `fd` (handles partial writes;
/// suppresses SIGPIPE so a vanished peer is an error return, not a signal).
bool WriteFrame(int fd, const ByteSink& payload, std::string* error);

// -------------------------------------------------- payload conveniences

/// Reads the leading u32 message type; on a short payload fails `src`.
MessageType ReadMessageType(ByteSource& src);

/// Builds an error-response payload (type + status + message).
ByteSink MakeErrorResponse(StatusCode status, const std::string& message);

/// Wraps a complete inner payload (u32 type + body) in a pipelining
/// envelope: `envelope` type, u64 request id, inner bytes. `envelope` must
/// be kTaggedRequest or kTaggedResponse.
ByteSink WrapTagged(MessageType envelope, uint64_t request_id,
                    const ByteSink& inner);

/// Reads the u64 request id of a tagged envelope; call after
/// ReadMessageType returned kTaggedRequest/kTaggedResponse. The source is
/// then positioned at the inner payload's message type.
uint64_t ReadTaggedId(ByteSource& src);

/// Wraps a complete inner payload (u32 type + body) in a tenant-addressing
/// envelope: kScopedRequest, graph-id string, inner bytes. Compose as
/// WrapTagged(..., WrapScoped(id, inner)) when pipelining — tagging stays
/// outermost.
ByteSink WrapScoped(const std::string& graph_id, const ByteSink& inner);

/// Reads the graph-id string of a scoped envelope; call after
/// ReadMessageType returned kScopedRequest. The source is then positioned
/// at the inner payload's message type.
std::string ReadScopedId(ByteSource& src);

/// Builds a kPingResponse payload (revision + capability bits).
ByteSink MakePingResponse(const ServerCapabilities& caps);

/// Decodes a kPingResponse payload (the type already consumed). A payload
/// missing either field fails `src`.
ServerCapabilities ParsePingResponse(ByteSource& src);

}  // namespace rigpm::server

#endif  // RIGPM_SERVER_PROTOCOL_H_
