#ifndef RIGPM_SERVER_SERVER_H_
#define RIGPM_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/gm_engine.h"
#include "server/catalog.h"
#include "server/protocol.h"

namespace rigpm::server {

/// Where and how the daemon listens. Exactly one transport is used: a
/// Unix-domain socket when `unix_path` is set, else TCP on `host:port`
/// (port 0 binds an ephemeral port, readable from QueryServer::port()).
struct ServerConfig {
  std::string unix_path;
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  /// Worker pool size (0 = hardware concurrency). Workers evaluate cache
  /// misses and run admin requests; they never own a connection, so any
  /// number of clients can share a small pool.
  uint32_t num_workers = 4;

  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Hard server-side cap on occurrence tuples echoed per response,
  /// regardless of what the request asks for.
  uint32_t max_return_tuples = 100000;

  /// Honor kShutdownRequest frames (handy for scripted smoke tests; a
  /// deployment that only trusts signals can turn it off).
  bool allow_remote_shutdown = true;

  /// Open-connection ceiling (0 = unlimited). Accepts past the cap are
  /// closed immediately — cheaper than letting an fd flood exhaust the
  /// process's descriptor table.
  uint32_t max_connections = 0;

  /// Close connections with no in-flight work and no bytes received for
  /// this long (0 = never). The idle-connection knob: thousands of idle
  /// sockets cost only memory under the event loop, but a deployment can
  /// still bound them.
  uint32_t idle_timeout_ms = 0;

  /// Maintenance-thread poll period (catalog.h MaintenancePolicy); 0 = no
  /// thread. Each tick polls every refreshable resident tenant's log tail
  /// (an O(1) size check per tenant) and applies new records without any
  /// client sending kRefresh.
  uint32_t maintenance_interval_ms = 0;

  /// Auto-compaction threshold: re-snapshot a tenant when its delta log
  /// outgrows this fraction of its base snapshot. 0 disables. Takes effect
  /// only with a maintenance thread (maintenance_interval_ms > 0).
  double auto_compact_ratio = 0.0;
};

/// The long-lived serving core the ROADMAP's daemon-mode item asks for: one
/// process serves pattern queries over the frame protocol of
/// server/protocol.h, from one or many graphs behind an EngineCatalog
/// (server/catalog.h).
///
/// Multi-tenancy: every request header names a graph id, and an empty one
/// goes to the catalog's default tenant. Every served graph is a catalog
/// tenant: a snapshot source registered with EngineCatalog::Register, or an
/// in-memory engine handed over with EngineCatalog::AdoptEngine. Each query
/// pins the addressed tenant's engine for its own duration; the catalog
/// opens sources lazily and (with a max_engines cap) evicts
/// least-recently-used, never under an in-flight query.
///
/// Threading: one event-loop thread owns every socket — it accepts, does
/// non-blocking frame reassembly per connection (epoll, level-triggered
/// with EPOLLONESHOT re-arm), and flushes per-connection write queues.
/// The loop also prepares each complete request. It reads the request
/// header and type, pins the tenant if it is resident
/// (EngineCatalog::PinResident), and probes the tenant's result cache with
/// a key built from the raw body bytes: a hit needs nothing else. Only a
/// miss, or a query for a tenant that is not resident, has its body
/// decoded, validated and parsed. The key is the request's body exactly as
/// received, so only byte-identical requests share an answer: two
/// declarations of one pattern number their nodes differently, and each
/// gets its own tuples. A cache hit, a ping and a rejected request are
/// answered in place and leave in the same loop pass; they never wait for
/// a worker. A fixed worker pool, fed over a dispatch queue, gets the rest:
///   - a cache miss, with its parsed patterns, key and pin, to evaluate;
///   - stats, refresh and shutdown requests;
///   - a valid query for a tenant that is not resident and a frame over
///     kMaxLoopFrameBytes (1 KiB); the worker runs the same preparation
///     from where the loop stopped, opening the tenant if it must.
/// The loop never opens a tenant, evaluates, or waits on a singleflight
/// flight, and it never drops a pin that may be an engine's last: it
/// releases a pin only while the catalog still publishes that state, and
/// hands any other to a worker. A worker calls GmEngine::Evaluate on the
/// pinned engine, as EvaluateBatch's workers do, so per-query results are
/// identical to in-process evaluation; a multi-pattern request evaluates
/// its patterns one after another. It drops the pin before it queues the
/// response, so an idle worker holds no engine. Workers never touch
/// sockets: a finished response is queued on its connection and the loop
/// is woken over an eventfd, which keeps every fd single-writer and lets
/// thousands of idle or slow connections coexist with a handful of
/// workers.
///
/// Pipelining: up to kMaxPipeline (64) requests per connection are with the
/// workers at once; frames past the cap wait in the connection's ready
/// queue, and reads pause when that queue fills (back-pressure, never an
/// error). They complete in any order, and answers the loop gives in place
/// can overtake them. Each response echoes its request's id.
///
/// Stats: a kStatsRequest is the one listing of the catalog. It returns the
/// serving counters and one row per tenant (StatsResponse::tenants) holding
/// the tenant's catalog fields and its current generation's cache counters.
///
/// Live refresh: every served engine lives behind a shared_ptr<EngineState>
/// that each request pins anew (RCU-style). A kRefreshRequest replays the
/// addressed tenant's delta log records, rebuilds the reachability index
/// over the merged graph, and publishes the new state — per tenant, every
/// other graph untouched; queries already running keep their reference to
/// the old engine until they finish, so nothing blocks and no connection
/// drops. The old state is freed when its last in-flight query completes.
///
/// Shutdown: Stop() (or a kShutdownRequest, or the daemon's SIGINT/SIGTERM
/// handler calling RequestStop()) stops accepting, lets dispatched requests
/// finish, flushes their responses (a shutdown ACK reaches its client),
/// closes every connection, and joins all threads.
class QueryServer {
 public:
  /// Serves every graph registered in `catalog` (non-null; register
  /// tenants before Start so clients never race the catalog setup). The
  /// catalog may be shared with other readers.
  QueryServer(std::shared_ptr<EngineCatalog> catalog, ServerConfig config);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens, and spawns the event-loop and worker threads.
  bool Start(std::string* error);

  /// Bound TCP port (after Start; 0 for Unix-domain servers).
  uint16_t port() const { return bound_port_; }

  /// Human-readable listening address ("unix:/path" or "host:port").
  std::string endpoint() const;

  bool running() const { return running_.load(); }

  /// Asynchronous stop signal — safe from any worker or from the daemon's
  /// signal-watching loop. Wait()/Stop() complete the shutdown.
  void RequestStop();
  bool stop_requested() const { return stop_.load(); }

  /// Blocks until a stop is requested, then tears down (idempotent).
  void Wait();

  /// Synchronous shutdown: RequestStop + drain + join. Idempotent.
  void Stop();

  /// Point-in-time serving counters: exactly what a kStatsRequest returns.
  StatsResponse Snapshot() const;

  /// The catalog behind the daemon — register/inspect tenants through it.
  EngineCatalog& catalog() { return *catalog_; }
  const EngineCatalog& catalog() const { return *catalog_; }

 private:
  /// Per-connection state machine. The event loop owns the fd and all
  /// read-side fields; `mu` guards only what workers also touch (the write
  /// queue and in-flight accounting).
  struct Connection {
    int fd = -1;
    std::chrono::steady_clock::time_point accept_time;
    std::chrono::steady_clock::time_point last_activity;

    // --- event-loop-only (no lock) ---
    std::vector<uint8_t> rbuf;  // unparsed bytes; rpos = consumed prefix
    size_t rpos = 0;
    std::deque<std::vector<uint8_t>> ready;  // whole frames, not prepared
    bool first_byte_recorded = false;
    bool in_epoll = false;
    bool poisoned = false;  // oversize length prefix; stop reading/parsing
    bool eof = false;       // clean FIN; reap once quiesced
    bool io_dead = false;   // hard read error; close on next settle

    // --- shared with workers ---
    std::mutex mu;
    std::deque<std::vector<uint8_t>> wq;  // framed responses (length
                                          // prefix included)
    size_t wq_front_off = 0;              // sent bytes of wq.front()
    size_t wq_bytes = 0;
    uint32_t inflight = 0;                // dispatched, not yet completed
    bool close_after_flush = false;
    bool closed = false;  // loop closed the fd; completions are dropped
  };

  /// One request frame on its way through the daemon. Prepare runs its
  /// first steps in one order wherever it runs: read the header and type;
  /// pin the tenant if it is resident, and probe its cache with the body's
  /// bytes; decode, validate and parse the body; open the tenant if no pin
  /// was taken, and probe its cache. The event loop runs them as far as it
  /// may, and a worker resumes where the loop stopped; each step's output
  /// stays in its field, so no step runs twice. Evaluate, on a worker, is
  /// the last step of a cache miss.
  struct Request {
    std::shared_ptr<Connection> conn;  // null: only a pin to drop
    std::vector<uint8_t> frame;        // payload (header + u32 type + body)

    // --- filled by Prepare ---
    bool decoded = false;              // header and type read
    RequestHeader header;
    MessageType type = MessageType::kQueryRequest;
    size_t body_offset = 0;            // where the body starts in `frame`
    bool validated = false;            // body decoded, validated, parsed
    QueryRequest query;                // body of a kQueryRequest
    std::vector<PatternQuery> parsed;  // its patterns, in request order
    uint32_t tuple_cap = 0;            // tuples echoed, server cap applied
    /// The tenant's pinned state. Dropped before the answer is queued, so
    /// an idle worker holds no engine; the loop hands a pin that may be the
    /// state's last to a worker instead of dropping it.
    std::shared_ptr<const EngineState> state;
    std::string cache_key;  // the body's bytes, then the server's cap

    // --- the answer ---
    ByteSink response;         // echoed id, then u32 type and body
    bool failed = false;       // counted in StatsResponse::errors
    bool close_after = false;  // shutdown ACK: close once flushed
    uint64_t queries = 0;      // queries served and their occurrences
    uint64_t occurrences = 0;
    /// Loop and worker time, queue wait excluded: a query's latency sample.
    double busy_ms = 0.0;
  };

  void EventLoop();
  void WorkerLoop();
  /// Maintenance thread body: RunMaintenance() on the catalog every
  /// config_.maintenance_interval_ms until stop (cv-interruptible sleep).
  void MaintenanceLoop();

  // Event-loop internals (called only from the loop thread).
  void AcceptNewConnections();
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  void ParseFrames(const std::shared_ptr<Connection>& conn);
  void PumpDispatch(const std::shared_ptr<Connection>& conn);
  /// Flushes as much of the write queue as the socket accepts. Returns
  /// false when the connection must close (error, or drained after
  /// close_after_flush).
  bool FlushWrites(const std::shared_ptr<Connection>& conn);
  /// Post-event/post-completion settling: dispatch newly unblocked frames
  /// (answering in place what the loop can), flush, reap a quiesced
  /// connection, re-arm epoll interest. Returns false when the connection
  /// was closed.
  bool SettleConnection(const std::shared_ptr<Connection>& conn);
  void UpdateInterest(const std::shared_ptr<Connection>& conn);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  void CloseIdleConnections();
  bool Drained();

  /// Runs `r`'s steps short of evaluation until it is answered (true) or
  /// what is left needs a worker (false): a cache miss to evaluate, or a
  /// stats, refresh or shutdown request. A query is probed before
  /// its body is decoded: the key is the body's bytes followed by the
  /// server's tuple cap, so a hit is the answer computed for those very
  /// bytes. The body is decoded only after a miss or for a tenant that is
  /// not resident, and always before a tenant opens, so an invalid request
  /// draws its rejection whatever its tenant's state, opens nothing,
  /// counts no catalog hit and refreshes no tenant's LRU recency. With
  /// `on_loop` it stops before reading a frame over kMaxLoopFrameBytes and
  /// before opening a tenant that is not resident; on a worker it opens
  /// that tenant. It never waits on a singleflight flight.
  bool Prepare(Request& r, bool on_loop);
  /// Prepare's first step: the header and type. Returns true when that
  /// answered the request (a malformed frame, an unknown type, a ping).
  bool DecodeHeader(Request& r);
  /// A query's body: decode, validate and parse. Returns true when that
  /// answered the request (a malformed body or an invalid query).
  bool DecodeQuery(Request& r);
  /// Probes the pinned state's cache with `r`'s key; on a hit serves the
  /// cached response and returns true.
  bool Probe(Request& r);
  /// Last step of a cache miss, on a worker: evaluates the pinned engine
  /// under the cache's singleflight.
  void Evaluate(Request& r);
  /// Puts a served query response into `r`'s answer and counts it.
  void Serve(Request& r, const QueryResponse& resp);
  /// Answers `r` with an error response (the protocol's rejections).
  static void Reject(Request& r, StatusCode status,
                     const std::string& message);
  /// Answers `r` with a failed QueryResponse (an invalid query).
  static void FailQuery(Request& r, StatusCode status,
                        const std::string& message);
  /// The worker-only requests: stats, refresh and shutdown.
  void HandleAdmin(Request& r);
  /// Worker side: finishes `r` and queues its answer.
  void ProcessRequest(Request r);
  /// Loop side of a request Prepare answered: queues the answer for this
  /// pass's flush and releases the pin without freeing an engine.
  void AnswerOnLoop(Request r);
  /// Counts an answered request (substituting an error for a response over
  /// the frame cap) and returns its framed bytes.
  std::vector<uint8_t> Book(Request& r);
  void FinishRequest(const std::shared_ptr<Connection>& conn,
                     std::vector<uint8_t> framed_response, bool close_after);
  void WakeLoop();

  /// Replays the tenant's new delta records and swaps its engine
  /// (per-tenant serialized inside the catalog).
  void HandleRefresh(const std::string& graph_id, ByteSink& out);

  void RecordAcceptLatency(double ms);

  ServerConfig config_;

  /// The served engines. Workers acquire per request; refresh and eviction
  /// publish through it. Never null.
  std::shared_ptr<EngineCatalog> catalog_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: workers wake the loop for completions
  uint16_t bound_port_ = 0;
  /// True only when THIS instance bound config_.unix_path; Stop() must not
  /// unlink a path it never owned (e.g. after Start() lost it to a live
  /// daemon), or destroying the failed server would unlink the live one.
  bool bound_unix_ = false;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};

  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  // Maintenance thread (spawned only when maintenance_interval_ms > 0).
  std::thread maintenance_thread_;
  std::mutex maint_mu_;
  std::condition_variable maint_cv_;

  // Connections, keyed by fd. Loop-owned; Snapshot() reads counters from
  // stats_mu_ instead of touching this map.
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;

  // Requests waiting for a worker.
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Request> dispatch_q_;

  // Connections with fresh completions, for the loop to flush/re-arm.
  std::mutex compl_mu_;
  std::vector<std::shared_ptr<Connection>> completions_;

  std::atomic<uint64_t> inflight_total_{0};  // dispatched, not completed

  std::chrono::steady_clock::time_point start_time_;

  // Serving counters; the latency rings keep the most recent samples for
  // the percentile estimates.
  mutable std::mutex stats_mu_;
  uint64_t connections_accepted_ = 0;
  uint64_t active_connections_ = 0;
  uint64_t requests_served_ = 0;
  uint64_t queries_served_ = 0;
  uint64_t errors_ = 0;
  uint64_t occurrences_emitted_ = 0;
  uint64_t refreshes_ = 0;
  uint64_t flushes_ = 0;
  uint64_t frames_flushed_ = 0;
  std::vector<double> latency_ring_;
  size_t latency_next_ = 0;
  bool latency_wrapped_ = false;
  std::vector<double> accept_ring_;
  size_t accept_next_ = 0;
  bool accept_wrapped_ = false;
};

}  // namespace rigpm::server

#endif  // RIGPM_SERVER_SERVER_H_
