#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <unordered_map>
#include <vector>

namespace rigpm::server {

namespace {

void SetError(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

/// Decodes an error-response payload into `status` + `message`. Returns
/// false if the payload is not an error response.
bool DecodeErrorResponse(ByteSource& src, StatusCode* status,
                         std::string* message) {
  *status = static_cast<StatusCode>(src.ReadU32());
  *message = src.ReadString();
  return src.ok();
}

/// Decodes a query (or error) response payload starting at its message
/// type; shared by the blocking and pipelined paths.
std::optional<QueryResponse> DecodeQueryPayload(ByteSource& src,
                                                std::string* error) {
  MessageType type = ReadMessageType(src);
  if (type == MessageType::kErrorResponse) {
    QueryResponse resp;
    StatusCode status;
    std::string message;
    if (!DecodeErrorResponse(src, &status, &message)) {
      SetError(error, "malformed error response");
      return std::nullopt;
    }
    resp.status = status;
    resp.error = std::move(message);
    return resp;
  }
  if (type != MessageType::kQueryResponse) {
    SetError(error, "unexpected response type");
    return std::nullopt;
  }
  QueryResponse resp = QueryResponse::Deserialize(src);
  if (!src.ok()) {
    SetError(error, "malformed query response: " + src.error());
    return std::nullopt;
  }
  return resp;
}

}  // namespace

QueryClient::~QueryClient() { Close(); }

void QueryClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool QueryClient::ConnectUnix(const std::string& path, std::string* error) {
  Close();
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    SetError(error, std::strerror(errno));
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    SetError(error, "unix socket path too long: " + path);
    Close();
    return false;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    SetError(error, "connect " + path + ": " + std::strerror(errno));
    Close();
    return false;
  }
  return true;
}

bool QueryClient::ConnectTcp(const std::string& host, uint16_t port,
                             std::string* error) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    SetError(error, std::strerror(errno));
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    SetError(error, "cannot parse host address " + host);
    Close();
    return false;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    SetError(error,
             "connect " + host + ":" + std::to_string(port) + ": " +
                 std::strerror(errno));
    Close();
    return false;
  }
  return true;
}

bool QueryClient::ReadResponseFrame(std::vector<uint8_t>* payload,
                                    std::string* error) {
  FrameReadStatus st = ReadFrame(fd_, max_frame_bytes, payload, error);
  if (st == FrameReadStatus::kOk) return true;
  if (st == FrameReadStatus::kEof) {
    SetError(error, "server closed the connection");
  }
  // EOF, oversize, or a socket error: the stream is dead or byte-
  // desynchronized (an oversize response's payload is still unread), so
  // reusing the connection would read garbage. Drop it; the caller can
  // reconnect.
  Close();
  return false;
}

bool QueryClient::RoundTrip(const ByteSink& request,
                            std::vector<uint8_t>* payload,
                            std::string* error) {
  if (fd_ < 0) {
    SetError(error, "not connected");
    return false;
  }
  if (!WriteFrame(fd_, request, error)) {
    Close();
    return false;
  }
  return ReadResponseFrame(payload, error);
}

ByteSink QueryClient::Addressed(const ByteSink& inner) const {
  if (graph_.empty()) return inner;
  return WrapScoped(graph_, inner);
}

std::optional<QueryResponse> QueryClient::Query(const QueryRequest& request,
                                                std::string* error) {
  ByteSink sink;
  request.Serialize(sink);
  std::vector<uint8_t> payload;
  if (!RoundTrip(Addressed(sink), &payload, error)) return std::nullopt;

  ByteSource src(payload.data(), payload.size());
  return DecodeQueryPayload(src, error);
}

std::optional<uint64_t> QueryClient::SendTagged(const QueryRequest& request,
                                                std::string* error) {
  if (fd_ < 0) {
    SetError(error, "not connected");
    return std::nullopt;
  }
  uint64_t id = next_request_id_++;
  ByteSink inner;
  request.Serialize(inner);
  // Tagging outermost, addressing inside — the order the server's event
  // loop peeks and the workers unwrap.
  ByteSink frame =
      WrapTagged(MessageType::kTaggedRequest, id, Addressed(inner));
  if (!WriteFrame(fd_, frame, error)) {
    Close();
    return std::nullopt;
  }
  return id;
}

std::optional<QueryClient::TaggedQueryResponse> QueryClient::ReceiveTagged(
    std::string* error) {
  if (fd_ < 0) {
    SetError(error, "not connected");
    return std::nullopt;
  }
  std::vector<uint8_t> payload;
  if (!ReadResponseFrame(&payload, error)) return std::nullopt;
  ByteSource src(payload.data(), payload.size());
  if (ReadMessageType(src) != MessageType::kTaggedResponse) {
    SetError(error, "expected a tagged response");
    return std::nullopt;
  }
  TaggedQueryResponse out;
  out.request_id = ReadTaggedId(src);
  if (!src.ok()) {
    SetError(error, "malformed tagged response");
    return std::nullopt;
  }
  auto resp = DecodeQueryPayload(src, error);
  if (!resp.has_value()) return std::nullopt;
  out.response = std::move(*resp);
  return out;
}

std::optional<std::vector<QueryResponse>> QueryClient::QueryPipelined(
    const std::vector<QueryRequest>& requests, std::string* error) {
  std::vector<uint64_t> ids;
  ids.reserve(requests.size());
  for (const QueryRequest& req : requests) {
    auto id = SendTagged(req, error);
    if (!id.has_value()) return std::nullopt;
    ids.push_back(*id);
  }
  // Collect in completion order, return in request order.
  std::unordered_map<uint64_t, QueryResponse> by_id;
  by_id.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto tagged = ReceiveTagged(error);
    if (!tagged.has_value()) return std::nullopt;
    if (!by_id.emplace(tagged->request_id, std::move(tagged->response))
             .second) {
      SetError(error, "duplicate response id " +
                          std::to_string(tagged->request_id));
      Close();
      return std::nullopt;
    }
  }
  std::vector<QueryResponse> ordered;
  ordered.reserve(ids.size());
  for (uint64_t id : ids) {
    auto it = by_id.find(id);
    if (it == by_id.end()) {
      SetError(error, "response id " + std::to_string(id) + " never arrived");
      Close();
      return std::nullopt;
    }
    ordered.push_back(std::move(it->second));
  }
  return ordered;
}

std::optional<StatsResponse> QueryClient::Stats(std::string* error) {
  ByteSink sink;
  sink.WriteU32(static_cast<uint32_t>(MessageType::kStatsRequest));
  std::vector<uint8_t> payload;
  if (!RoundTrip(sink, &payload, error)) return std::nullopt;

  ByteSource src(payload.data(), payload.size());
  if (ReadMessageType(src) != MessageType::kStatsResponse) {
    SetError(error, "unexpected response type");
    return std::nullopt;
  }
  StatsResponse resp = StatsResponse::Deserialize(src);
  if (!src.ok()) {
    SetError(error, "malformed stats response: " + src.error());
    return std::nullopt;
  }
  return resp;
}

std::optional<RefreshResponse> QueryClient::Refresh(std::string* error) {
  ByteSink sink;
  sink.WriteU32(static_cast<uint32_t>(MessageType::kRefreshRequest));
  std::vector<uint8_t> payload;
  if (!RoundTrip(Addressed(sink), &payload, error)) return std::nullopt;

  ByteSource src(payload.data(), payload.size());
  MessageType type = ReadMessageType(src);
  if (type == MessageType::kErrorResponse) {
    RefreshResponse resp;
    if (!DecodeErrorResponse(src, &resp.status, &resp.error)) {
      SetError(error, "malformed error response");
      return std::nullopt;
    }
    return resp;
  }
  if (type != MessageType::kRefreshResponse) {
    SetError(error, "unexpected response type");
    return std::nullopt;
  }
  RefreshResponse resp = RefreshResponse::Deserialize(src);
  if (!src.ok()) {
    SetError(error, "malformed refresh response: " + src.error());
    return std::nullopt;
  }
  return resp;
}

bool QueryClient::Ping(std::string* error) {
  ByteSink sink;
  sink.WriteU32(static_cast<uint32_t>(MessageType::kPingRequest));
  std::vector<uint8_t> payload;
  if (!RoundTrip(sink, &payload, error)) return false;
  ByteSource src(payload.data(), payload.size());
  if (ReadMessageType(src) != MessageType::kPingResponse) {
    SetError(error, "unexpected response type");
    return false;
  }
  return true;
}

std::optional<ServerCapabilities> QueryClient::Capabilities(
    std::string* error) {
  ByteSink sink;
  sink.WriteU32(static_cast<uint32_t>(MessageType::kPingRequest));
  std::vector<uint8_t> payload;
  if (!RoundTrip(sink, &payload, error)) return std::nullopt;
  ByteSource src(payload.data(), payload.size());
  if (ReadMessageType(src) != MessageType::kPingResponse) {
    SetError(error, "unexpected response type");
    return std::nullopt;
  }
  ServerCapabilities caps = ParsePingResponse(src);
  if (!src.ok()) {
    SetError(error, "malformed ping response: " + src.error());
    return std::nullopt;
  }
  return caps;
}

std::optional<ListGraphsResponse> QueryClient::ListGraphs(std::string* error) {
  ByteSink sink;
  sink.WriteU32(static_cast<uint32_t>(MessageType::kListGraphsRequest));
  std::vector<uint8_t> payload;
  if (!RoundTrip(sink, &payload, error)) return std::nullopt;
  ByteSource src(payload.data(), payload.size());
  MessageType type = ReadMessageType(src);
  if (type == MessageType::kErrorResponse) {
    // Server-side rejections come back as an error frame.
    ListGraphsResponse resp;
    if (!DecodeErrorResponse(src, &resp.status, &resp.error)) {
      SetError(error, "malformed error response");
      return std::nullopt;
    }
    return resp;
  }
  if (type != MessageType::kListGraphsResponse) {
    SetError(error, "unexpected response type");
    return std::nullopt;
  }
  ListGraphsResponse resp = ListGraphsResponse::Deserialize(src);
  if (!src.ok()) {
    SetError(error, "malformed list-graphs response: " + src.error());
    return std::nullopt;
  }
  return resp;
}

bool QueryClient::Shutdown(std::string* error) {
  ByteSink sink;
  sink.WriteU32(static_cast<uint32_t>(MessageType::kShutdownRequest));
  std::vector<uint8_t> payload;
  if (!RoundTrip(sink, &payload, error)) return false;
  ByteSource src(payload.data(), payload.size());
  MessageType type = ReadMessageType(src);
  if (type == MessageType::kErrorResponse) {
    StatusCode status;
    std::string message;
    if (DecodeErrorResponse(src, &status, &message)) {
      SetError(error, message);
    }
    return false;
  }
  return type == MessageType::kShutdownResponse;
}

}  // namespace rigpm::server
