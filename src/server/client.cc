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

/// The response type and body after the echoed request id (Receive checked
/// that the frame holds one).
ByteSource BodyOf(const std::vector<uint8_t>& payload) {
  return ByteSource(payload.data() + sizeof(uint64_t),
                    payload.size() - sizeof(uint64_t));
}

/// Decodes a response of the `expected` type, or an error response into a
/// T carrying its status and message: a server-side rejection is an
/// answer, not a transport failure.
template <typename T>
std::optional<T> DecodeResponse(ByteSource& src, MessageType expected,
                                const char* what, std::string* error) {
  MessageType type = ReadMessageType(src);
  T resp;
  if (type == MessageType::kErrorResponse) {
    resp.status = static_cast<StatusCode>(src.ReadU32());
    resp.error = src.ReadString();
  } else if (type == expected) {
    resp = T::Deserialize(src);
  } else {
    SetError(error, "unexpected response type");
    return std::nullopt;
  }
  if (!src.ok()) {
    SetError(error, std::string("malformed ") + what + ": " + src.error());
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

std::optional<uint64_t> QueryClient::Send(MessageType type,
                                          const QueryRequest* query,
                                          std::string* error) {
  if (fd_ < 0) {
    SetError(error, "not connected");
    return std::nullopt;
  }
  static const std::string kDaemonWide;
  const bool addressed = type == MessageType::kQueryRequest ||
                         type == MessageType::kRefreshRequest;
  const uint64_t id = next_request_id_++;
  ByteSink sink;
  WriteRequestHeader(sink, id, addressed ? graph_ : kDaemonWide);
  if (query != nullptr) {
    query->Serialize(sink);
  } else {
    sink.WriteU32(static_cast<uint32_t>(type));
  }
  if (!WriteFrame(fd_, sink, error)) {
    Close();
    return std::nullopt;
  }
  return id;
}

std::optional<uint64_t> QueryClient::Receive(std::vector<uint8_t>* payload,
                                             std::string* error) {
  if (fd_ < 0) {
    SetError(error, "not connected");
    return std::nullopt;
  }
  FrameReadStatus st = ReadFrame(fd_, max_frame_bytes, payload, error);
  if (st == FrameReadStatus::kOk && payload->size() >= sizeof(uint64_t)) {
    ByteSource src(payload->data(), payload->size());
    return src.ReadU64();
  }
  if (st == FrameReadStatus::kOk) {
    SetError(error, "response too short for a request id");
  } else if (st == FrameReadStatus::kEof) {
    SetError(error, "server closed the connection");
  }
  // EOF, oversize, a short frame or a socket error: the stream is dead or
  // byte-desynchronized (an oversize response's payload is still unread),
  // so reusing the connection would read garbage. Drop it; the caller can
  // reconnect.
  Close();
  return std::nullopt;
}

bool QueryClient::RoundTrip(MessageType type, const QueryRequest* query,
                            std::vector<uint8_t>* payload,
                            std::string* error) {
  std::optional<uint64_t> sent = Send(type, query, error);
  if (!sent.has_value()) return false;
  std::optional<uint64_t> echoed = Receive(payload, error);
  if (!echoed.has_value()) return false;
  if (*echoed != *sent) {
    SetError(error, "response id mismatch: sent " + std::to_string(*sent) +
                        ", got " + std::to_string(*echoed));
    Close();
    return false;
  }
  return true;
}

std::optional<QueryResponse> QueryClient::Query(const QueryRequest& request,
                                                std::string* error) {
  std::vector<uint8_t> payload;
  if (!RoundTrip(MessageType::kQueryRequest, &request, &payload, error)) {
    return std::nullopt;
  }
  ByteSource src = BodyOf(payload);
  return DecodeResponse<QueryResponse>(src, MessageType::kQueryResponse,
                                       "query response", error);
}

std::optional<uint64_t> QueryClient::SendTagged(const QueryRequest& request,
                                                std::string* error) {
  return Send(MessageType::kQueryRequest, &request, error);
}

std::optional<QueryClient::TaggedQueryResponse> QueryClient::ReceiveTagged(
    std::string* error) {
  std::vector<uint8_t> payload;
  std::optional<uint64_t> id = Receive(&payload, error);
  if (!id.has_value()) return std::nullopt;
  ByteSource src = BodyOf(payload);
  auto resp = DecodeResponse<QueryResponse>(src, MessageType::kQueryResponse,
                                            "query response", error);
  if (!resp.has_value()) return std::nullopt;
  return TaggedQueryResponse{*id, std::move(*resp)};
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
  std::vector<uint8_t> payload;
  if (!RoundTrip(MessageType::kStatsRequest, nullptr, &payload, error)) {
    return std::nullopt;
  }
  ByteSource src = BodyOf(payload);
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
  std::vector<uint8_t> payload;
  if (!RoundTrip(MessageType::kRefreshRequest, nullptr, &payload, error)) {
    return std::nullopt;
  }
  ByteSource src = BodyOf(payload);
  return DecodeResponse<RefreshResponse>(src, MessageType::kRefreshResponse,
                                         "refresh response", error);
}

bool QueryClient::Ping(std::string* error) {
  std::vector<uint8_t> payload;
  if (!RoundTrip(MessageType::kPingRequest, nullptr, &payload, error)) {
    return false;
  }
  ByteSource src = BodyOf(payload);
  if (ReadMessageType(src) != MessageType::kPingResponse) {
    SetError(error, "unexpected response type");
    return false;
  }
  return true;
}

bool QueryClient::Shutdown(std::string* error) {
  std::vector<uint8_t> payload;
  if (!RoundTrip(MessageType::kShutdownRequest, nullptr, &payload, error)) {
    return false;
  }
  ByteSource src = BodyOf(payload);
  MessageType type = ReadMessageType(src);
  if (type == MessageType::kErrorResponse) {
    src.ReadU32();  // status
    std::string message = src.ReadString();
    if (src.ok()) SetError(error, message);
    return false;
  }
  return type == MessageType::kShutdownResponse;
}

}  // namespace rigpm::server
