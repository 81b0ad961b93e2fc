#ifndef RIGPM_SERVER_PROTOCOL_H_
#define RIGPM_SERVER_PROTOCOL_H_

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
///   u32      payload length in bytes (at most the frame cap)
///   payload  request:  u64 request id, string graph id, u32 type, body
///            response: u64 request id (echoed), u32 type, body
///
/// Every request carries the same header (WriteRequestHeader /
/// ReadRequestHeader). The id is the client's to choose; the response to
/// the request echoes it, and responses on one connection arrive in
/// completion order, so a client with several requests in flight matches
/// them by id. The graph id names the catalog tenant a query or refresh
/// runs against; "" means the daemon's default graph, and daemon-wide
/// requests (stats, ping, shutdown) ignore it.
///
/// Each job has one message: patterns are the only query form a request
/// can carry, and the stats response, one row per tenant, is the only
/// listing of the catalog.
///
/// A connection carries any number of request/response pairs; the server
/// answers every frame with exactly one response frame, and a frame too
/// short for its header and type, an unknown type or a malformed body with
/// an error response (id 0 when the header itself is unreadable). Only an
/// oversized length prefix (which poisons the stream position) closes the
/// connection.
///
/// Client and daemon are the same build, so every payload has exactly one
/// layout: decoders read every field and a short payload is an error,
/// never a sign of an older peer.

inline constexpr uint32_t kDefaultMaxFrameBytes = 16u << 20;

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

  kQueryResponse = 101,
  kStatsResponse = 102,
  kPingResponse = 103,  // empty body
  kShutdownResponse = 104,
  kRefreshResponse = 105,
  kErrorResponse = 199,
};

enum class StatusCode : uint32_t {
  kOk = 0,
  kParseError = 1,     // pattern text
  kBadRequest = 2,     // malformed body, unknown type, oversize
  kShuttingDown = 3,   // server is draining
  kInternalError = 4,  // evaluation failed unexpectedly
};

const char* StatusCodeName(StatusCode s);

/// The fixed head of every request payload, ahead of its u32 type.
struct RequestHeader {
  uint64_t request_id = 0;  // echoed at the head of the response
  std::string graph_id;     // catalog tenant; "" = the default graph
};

/// Appends the request header to `sink`; the u32 type and body follow.
void WriteRequestHeader(ByteSink& sink, uint64_t request_id,
                        const std::string& graph_id);

/// Reads the request header. A payload too short for it fails `src` and
/// yields the empty header (id 0).
RequestHeader ReadRequestHeader(ByteSource& src);

/// One pattern-matching request: one or more patterns in the inline syntax
/// of query/pattern_parser.h, evaluated one after another in request order.
/// The daemon evaluates with default GmOptions plus `limit`.
struct QueryRequest {
  std::vector<std::string> patterns;
  uint64_t limit = std::numeric_limits<uint64_t>::max();

  /// Echo up to this many occurrence tuples back (single-query requests
  /// only); the server additionally enforces its own cap.
  uint32_t max_return_tuples = 0;

  /// Writes the u32 type and the body.
  void Serialize(ByteSink& sink) const;
  /// Reads the body (the type already consumed).
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

/// One catalog tenant's row of StatsResponse: its catalog fields, then the
/// result-cache counters of its CURRENT engine generation (all zero when it
/// is not resident; the cache is generation-scoped, so a refresh resets
/// them; see server/result_cache.h).
struct GraphInfoWire {
  std::string id;
  bool resident = false;     // engine currently open in the daemon
  bool refreshable = false;  // has a delta source (kRefresh will act)
  uint64_t applied_seqno = 0;
  uint64_t queries = 0;  // queries served for this graph since start
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  uint64_t singleflight_waits = 0;
  uint64_t bytes_used = 0;
  uint64_t entries = 0;

  void Serialize(ByteSink& sink) const;
  static GraphInfoWire Deserialize(ByteSource& src);
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

  // Engine catalog: one row per registered tenant, sorted by id, and the
  // tenant that serves unaddressed requests. Single-tenant daemons report
  // one row.
  uint64_t catalog_hits = 0;
  uint64_t catalog_misses = 0;
  uint64_t catalog_evictions = 0;
  std::string default_id;
  std::vector<GraphInfoWire> tenants;

  // Result cache and write coalescing. The cache_* totals sum the rows'
  // cache counters.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_inserts = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_singleflight_waits = 0;
  uint64_t cache_bytes_used = 0;
  uint64_t cache_entries = 0;
  uint64_t flushes = 0;         // sendmsg gather calls that moved bytes
  uint64_t frames_flushed = 0;  // whole response frames those calls retired
  // Maintenance counters (zero when the daemon runs without a maintenance
  // thread/policy).
  uint64_t auto_refreshes = 0;
  uint64_t auto_compactions = 0;
  uint64_t maintenance_bytes_reclaimed = 0;
  uint64_t deletes_applied = 0;
  uint64_t maintenance_failures = 0;

  void Serialize(ByteSink& sink) const;
  static StatsResponse Deserialize(ByteSource& src);
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
  kOversize,  // declared length exceeds max_bytes (stream is poisoned)
  kError,     // socket error or mid-frame disconnect
};

/// Reads one length-prefixed frame from the blocking socket `fd` into
/// *out. Never allocates more than `max_bytes`.
FrameReadStatus ReadFrame(int fd, uint32_t max_bytes,
                          std::vector<uint8_t>* out, std::string* error);

/// Writes the length prefix and `payload` to `fd` (handles partial writes;
/// suppresses SIGPIPE so a vanished peer is an error return, not a signal).
bool WriteFrame(int fd, const ByteSink& payload, std::string* error);

// -------------------------------------------------- payload conveniences

/// Reads the leading u32 message type; on a short payload fails `src`.
MessageType ReadMessageType(ByteSource& src);

/// Builds an error-response payload (request id + type + status + message).
ByteSink MakeErrorResponse(uint64_t request_id, StatusCode status,
                           const std::string& message);

}  // namespace rigpm::server

#endif  // RIGPM_SERVER_PROTOCOL_H_
