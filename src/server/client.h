#ifndef RIGPM_SERVER_CLIENT_H_
#define RIGPM_SERVER_CLIENT_H_

#include <cstdint>
#include <optional>
#include <string>

#include "server/protocol.h"

namespace rigpm::server {

/// Blocking client for the rigpm query daemon: one connection, any number of
/// request/response round trips — or, with SendTagged/ReceiveTagged, many
/// requests pipelined on the one connection with out-of-order completion.
/// Thread contract: one thread per client (open several clients for
/// concurrency — the server multiplexes all of them over its event loop).
///
/// The client is the session: it owns the connection, the request-id
/// counter every request header draws from, and the graph the session
/// addresses. SetGraph routes every query, pipelined query, and refresh at
/// one of a multi-graph daemon's tenants; with no graph set the header
/// carries "", which the daemon serves from its default graph.
/// Ping/Stats/Shutdown are daemon-wide and always carry "".
/// A blocking round trip whose response echoes another id fails and
/// closes the connection.
class QueryClient {
 public:
  QueryClient() = default;
  ~QueryClient();

  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;
  QueryClient(QueryClient&& other) noexcept
      : max_frame_bytes(other.max_frame_bytes),
        fd_(other.fd_),
        next_request_id_(other.next_request_id_),
        graph_(std::move(other.graph_)) {
    other.fd_ = -1;
  }

  bool ConnectUnix(const std::string& path, std::string* error = nullptr);
  bool ConnectTcp(const std::string& host, uint16_t port,
                  std::string* error = nullptr);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Addresses this session's queries and refreshes at the named graph of
  /// a multi-graph daemon ("" = the daemon's default graph).
  void SetGraph(std::string graph_id) { graph_ = std::move(graph_id); }
  const std::string& graph() const { return graph_; }

  /// One query round trip. Returns nullopt only on transport failure (or a
  /// response echoing the wrong id); server-side rejections come back as a
  /// response with status != kOk.
  std::optional<QueryResponse> Query(const QueryRequest& request,
                                     std::string* error = nullptr);

  /// Pipelining: sends a query frame without waiting for the response and
  /// returns the request id its header carries. Any number may be in
  /// flight; collect each with ReceiveTagged (responses arrive in the
  /// server's completion order, not send order).
  std::optional<uint64_t> SendTagged(const QueryRequest& request,
                                     std::string* error = nullptr);

  struct TaggedQueryResponse {
    uint64_t request_id = 0;
    QueryResponse response;
  };

  /// Reads one response frame, whichever in-flight request it answers.
  /// Returns nullopt on transport failure or a malformed frame.
  std::optional<TaggedQueryResponse> ReceiveTagged(
      std::string* error = nullptr);

  /// Convenience pipeline: sends every request back-to-back on the one
  /// connection, then collects all responses and returns them in request
  /// order regardless of the order the server finished them in.
  std::optional<std::vector<QueryResponse>> QueryPipelined(
      const std::vector<QueryRequest>& requests,
      std::string* error = nullptr);

  /// The daemon's serving counters and its catalog: one row per tenant.
  std::optional<StatsResponse> Stats(std::string* error = nullptr);

  /// Asks the server to replay its delta log and swap the refreshed engine
  /// in (kRefreshRequest). Returns nullopt only on transport failure;
  /// server-side rejections (no delta configured, unreadable log) come back
  /// as a response with status != kOk.
  std::optional<RefreshResponse> Refresh(std::string* error = nullptr);

  /// Liveness probe (also what scripts poll while the daemon starts up).
  bool Ping(std::string* error = nullptr);

  /// Asks the server to shut down gracefully (needs the server's
  /// allow_remote_shutdown). Returns true once the server acknowledges.
  bool Shutdown(std::string* error = nullptr);

  /// Raw connection handle, for tests that need to speak malformed bytes.
  int fd() const { return fd_; }

  /// Per-connection cap for response frames (mirrors the server default).
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;

 private:
  /// Writes one request frame: the header (the next request id; the
  /// session graph for query and refresh requests, "" otherwise), then
  /// `query`'s type and body, or the bare `type` when `query` is null.
  /// Returns the request id.
  std::optional<uint64_t> Send(MessageType type, const QueryRequest* query,
                               std::string* error);

  /// Reads one response frame into *payload and returns the id it echoes
  /// (the type and body follow it). Closes the connection on failure,
  /// since the stream is then desynchronized.
  std::optional<uint64_t> Receive(std::vector<uint8_t>* payload,
                                  std::string* error);

  /// One whole exchange: Send, then Receive; a response echoing any other
  /// id fails and closes the connection.
  bool RoundTrip(MessageType type, const QueryRequest* query,
                 std::vector<uint8_t>* payload, std::string* error);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  std::string graph_;
};

}  // namespace rigpm::server

#endif  // RIGPM_SERVER_CLIENT_H_
