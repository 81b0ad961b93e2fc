#include "server/protocol.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <limits>

namespace rigpm::server {

namespace {

void WriteF64(ByteSink& sink, double v) {
  sink.WriteU64(std::bit_cast<uint64_t>(v));
}

double ReadF64(ByteSource& src) {
  return std::bit_cast<double>(src.ReadU64());
}

void WriteBool(ByteSink& sink, bool v) { sink.WriteU8(v ? 1 : 0); }

bool ReadBool(ByteSource& src) { return src.ReadU8() != 0; }

/// Reads exactly n bytes; distinguishes a clean EOF before the first byte
/// (frame boundary) from a mid-buffer disconnect.
FrameReadStatus ReadExact(int fd, uint8_t* buf, size_t n, std::string* error) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = std::strerror(errno);
      return FrameReadStatus::kError;
    }
    if (r == 0) {
      if (got == 0) return FrameReadStatus::kEof;
      if (error != nullptr) *error = "peer disconnected mid-frame";
      return FrameReadStatus::kError;
    }
    got += static_cast<size_t>(r);
  }
  return FrameReadStatus::kOk;
}

}  // namespace

const char* StatusCodeName(StatusCode s) {
  switch (s) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kParseError: return "parse error";
    case StatusCode::kBadRequest: return "bad request";
    case StatusCode::kShuttingDown: return "shutting down";
    case StatusCode::kInternalError: return "internal error";
  }
  return "unknown";
}

// ---------------------------------------------------------- RequestHeader

void WriteRequestHeader(ByteSink& sink, uint64_t request_id,
                        const std::string& graph_id) {
  sink.WriteU64(request_id);
  sink.WriteString(graph_id);
}

RequestHeader ReadRequestHeader(ByteSource& src) {
  RequestHeader header;
  header.request_id = src.ReadU64();
  header.graph_id = src.ReadString();
  if (!src.ok()) return RequestHeader{};
  return header;
}

// ----------------------------------------------------------- QueryRequest

void QueryRequest::Serialize(ByteSink& sink) const {
  sink.WriteU32(static_cast<uint32_t>(MessageType::kQueryRequest));
  sink.WriteU32(static_cast<uint32_t>(patterns.size()));
  for (const std::string& p : patterns) sink.WriteString(p);
  sink.WriteU64(limit);
  sink.WriteU32(max_return_tuples);
}

QueryRequest QueryRequest::Deserialize(ByteSource& src) {
  QueryRequest req;
  uint32_t num_patterns = src.ReadU32();
  // Each pattern costs at least a u64 length on the wire, so a sane count
  // is bounded by the remaining bytes; reject before reserving anything.
  if (num_patterns > src.remaining() / sizeof(uint64_t)) {
    src.Fail("pattern count exceeds request size");
    return req;
  }
  req.patterns.reserve(num_patterns);
  for (uint32_t i = 0; i < num_patterns && src.ok(); ++i) {
    req.patterns.push_back(src.ReadString());
  }
  req.limit = src.ReadU64();
  req.max_return_tuples = src.ReadU32();
  return req;
}

// ---------------------------------------------------------- QueryResponse

uint64_t QueryResponse::TotalOccurrences() const {
  uint64_t total = 0;
  for (const QueryResultWire& r : results) total += r.num_occurrences;
  return total;
}

void QueryResponse::Serialize(ByteSink& sink) const {
  sink.WriteU32(static_cast<uint32_t>(MessageType::kQueryResponse));
  sink.WriteU32(static_cast<uint32_t>(status));
  sink.WriteString(error);
  sink.WriteU32(static_cast<uint32_t>(results.size()));
  for (const QueryResultWire& r : results) {
    sink.WriteU64(r.num_occurrences);
    WriteBool(sink, r.hit_limit);
    sink.WriteU32(static_cast<uint32_t>(r.phase_timings.size()));
    for (const PhaseTimingWire& pt : r.phase_timings) {
      sink.WriteString(pt.name);
      WriteF64(sink, pt.ms);
    }
  }
  sink.WriteU32(tuple_arity);
  sink.WriteVec(tuples);
}

QueryResponse QueryResponse::Deserialize(ByteSource& src) {
  QueryResponse resp;
  resp.status = static_cast<StatusCode>(src.ReadU32());
  resp.error = src.ReadString();
  uint32_t num_results = src.ReadU32();
  if (num_results > src.remaining() / sizeof(uint64_t)) {
    src.Fail("result count exceeds response size");
    return resp;
  }
  resp.results.resize(num_results);
  for (QueryResultWire& r : resp.results) {
    if (!src.ok()) break;
    r.num_occurrences = src.ReadU64();
    r.hit_limit = ReadBool(src);
    uint32_t num_phases = src.ReadU32();
    if (num_phases > src.remaining() / sizeof(uint64_t)) {
      src.Fail("phase count exceeds response size");
      return resp;
    }
    r.phase_timings.resize(num_phases);
    for (PhaseTimingWire& pt : r.phase_timings) {
      pt.name = src.ReadString();
      pt.ms = ReadF64(src);
    }
  }
  resp.tuple_arity = src.ReadU32();
  src.ReadVec(&resp.tuples);
  if (resp.tuple_arity != 0 &&
      resp.tuples.size() % resp.tuple_arity != 0) {
    src.Fail("tuple payload is not a multiple of the arity");
  }
  return resp;
}

// ---------------------------------------------------------- StatsResponse

void StatsResponse::Serialize(ByteSink& sink) const {
  sink.WriteU32(static_cast<uint32_t>(MessageType::kStatsResponse));
  sink.WriteU64(uptime_ms);
  sink.WriteU64(connections_accepted);
  sink.WriteU64(active_connections);
  sink.WriteU64(requests_served);
  sink.WriteU64(queries_served);
  sink.WriteU64(errors);
  sink.WriteU64(occurrences_emitted);
  WriteF64(sink, latency_p50_ms);
  WriteF64(sink, latency_p99_ms);
  sink.WriteU64(refreshes);
  sink.WriteU64(dispatch_depth);
  WriteF64(sink, accept_p50_ms);
  WriteF64(sink, accept_p99_ms);
  sink.WriteU64(catalog_hits);
  sink.WriteU64(catalog_misses);
  sink.WriteU64(catalog_evictions);
  sink.WriteString(default_id);
  sink.WriteU32(static_cast<uint32_t>(tenants.size()));
  for (const GraphInfoWire& t : tenants) t.Serialize(sink);
  sink.WriteU64(cache_hits);
  sink.WriteU64(cache_misses);
  sink.WriteU64(cache_inserts);
  sink.WriteU64(cache_evictions);
  sink.WriteU64(cache_singleflight_waits);
  sink.WriteU64(cache_bytes_used);
  sink.WriteU64(cache_entries);
  sink.WriteU64(flushes);
  sink.WriteU64(frames_flushed);
  sink.WriteU64(auto_refreshes);
  sink.WriteU64(auto_compactions);
  sink.WriteU64(maintenance_bytes_reclaimed);
  sink.WriteU64(deletes_applied);
  sink.WriteU64(maintenance_failures);
}

StatsResponse StatsResponse::Deserialize(ByteSource& src) {
  StatsResponse s;
  s.uptime_ms = src.ReadU64();
  s.connections_accepted = src.ReadU64();
  s.active_connections = src.ReadU64();
  s.requests_served = src.ReadU64();
  s.queries_served = src.ReadU64();
  s.errors = src.ReadU64();
  s.occurrences_emitted = src.ReadU64();
  s.latency_p50_ms = ReadF64(src);
  s.latency_p99_ms = ReadF64(src);
  s.refreshes = src.ReadU64();
  s.dispatch_depth = src.ReadU64();
  s.accept_p50_ms = ReadF64(src);
  s.accept_p99_ms = ReadF64(src);
  s.catalog_hits = src.ReadU64();
  s.catalog_misses = src.ReadU64();
  s.catalog_evictions = src.ReadU64();
  s.default_id = src.ReadString();
  uint32_t num_tenants = src.ReadU32();
  if (num_tenants > src.remaining() / sizeof(uint64_t)) {
    src.Fail("tenant count exceeds response size");
    return s;
  }
  s.tenants.resize(num_tenants);
  for (GraphInfoWire& t : s.tenants) {
    if (!src.ok()) break;
    t = GraphInfoWire::Deserialize(src);
  }
  s.cache_hits = src.ReadU64();
  s.cache_misses = src.ReadU64();
  s.cache_inserts = src.ReadU64();
  s.cache_evictions = src.ReadU64();
  s.cache_singleflight_waits = src.ReadU64();
  s.cache_bytes_used = src.ReadU64();
  s.cache_entries = src.ReadU64();
  s.flushes = src.ReadU64();
  s.frames_flushed = src.ReadU64();
  s.auto_refreshes = src.ReadU64();
  s.auto_compactions = src.ReadU64();
  s.maintenance_bytes_reclaimed = src.ReadU64();
  s.deletes_applied = src.ReadU64();
  s.maintenance_failures = src.ReadU64();
  return s;
}

// ----------------------------------------------------------- catalog wire

void GraphInfoWire::Serialize(ByteSink& sink) const {
  sink.WriteString(id);
  WriteBool(sink, resident);
  WriteBool(sink, refreshable);
  sink.WriteU64(applied_seqno);
  sink.WriteU64(queries);
  sink.WriteU64(hits);
  sink.WriteU64(misses);
  sink.WriteU64(inserts);
  sink.WriteU64(evictions);
  sink.WriteU64(singleflight_waits);
  sink.WriteU64(bytes_used);
  sink.WriteU64(entries);
}

GraphInfoWire GraphInfoWire::Deserialize(ByteSource& src) {
  GraphInfoWire g;
  g.id = src.ReadString();
  g.resident = ReadBool(src);
  g.refreshable = ReadBool(src);
  g.applied_seqno = src.ReadU64();
  g.queries = src.ReadU64();
  g.hits = src.ReadU64();
  g.misses = src.ReadU64();
  g.inserts = src.ReadU64();
  g.evictions = src.ReadU64();
  g.singleflight_waits = src.ReadU64();
  g.bytes_used = src.ReadU64();
  g.entries = src.ReadU64();
  return g;
}

// -------------------------------------------------------- RefreshResponse

void RefreshResponse::Serialize(ByteSink& sink) const {
  sink.WriteU32(static_cast<uint32_t>(MessageType::kRefreshResponse));
  sink.WriteU32(static_cast<uint32_t>(status));
  sink.WriteString(error);
  sink.WriteU64(records_applied);
  sink.WriteU64(edges_in_records);
  sink.WriteU64(last_seqno);
  sink.WriteU64(num_nodes);
  sink.WriteU64(num_edges);
  WriteBool(sink, log_truncated);
  WriteF64(sink, refresh_ms);
}

RefreshResponse RefreshResponse::Deserialize(ByteSource& src) {
  RefreshResponse r;
  r.status = static_cast<StatusCode>(src.ReadU32());
  r.error = src.ReadString();
  r.records_applied = src.ReadU64();
  r.edges_in_records = src.ReadU64();
  r.last_seqno = src.ReadU64();
  r.num_nodes = src.ReadU64();
  r.num_edges = src.ReadU64();
  r.log_truncated = ReadBool(src);
  r.refresh_ms = ReadF64(src);
  return r;
}

// ------------------------------------------------------------- frame I/O

FrameReadStatus ReadFrame(int fd, uint32_t max_bytes,
                          std::vector<uint8_t>* out, std::string* error) {
  uint8_t len_bytes[sizeof(uint32_t)];
  FrameReadStatus st = ReadExact(fd, len_bytes, sizeof(len_bytes), error);
  if (st != FrameReadStatus::kOk) return st;
  uint32_t len = 0;
  std::memcpy(&len, len_bytes, sizeof(len));
  if (len > max_bytes) {
    if (error != nullptr) {
      *error = "frame of " + std::to_string(len) +
               " bytes exceeds the limit of " + std::to_string(max_bytes);
    }
    return FrameReadStatus::kOversize;
  }
  out->resize(len);
  return ReadExact(fd, out->data(), len, error);
}

bool WriteFrame(int fd, const ByteSink& payload, std::string* error) {
  if (payload.size() > std::numeric_limits<uint32_t>::max()) {
    // A u32 length prefix cannot represent this; truncating it would emit
    // a corrupt frame and desynchronize the stream.
    if (error != nullptr) {
      *error = "payload of " + std::to_string(payload.size()) +
               " bytes does not fit a u32 length prefix";
    }
    return false;
  }
  // Gather the 4-byte prefix and the payload into one sendmsg: no copy of
  // a possibly-multi-MB payload, and one packet instead of a write-write
  // sequence (which Nagle + delayed ACK would penalize on TCP).
  uint32_t len = static_cast<uint32_t>(payload.size());
  iovec iov[2];
  iov[0].iov_base = &len;
  iov[0].iov_len = sizeof(len);
  iov[1].iov_base =
      const_cast<uint8_t*>(payload.data().data());  // sendmsg won't write
  iov[1].iov_len = payload.size();
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  while (msg.msg_iovlen > 0) {
    ssize_t r = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = std::strerror(errno);
      return false;
    }
    // Drop fully-sent iovec entries, advance into a partially-sent one.
    auto done = static_cast<size_t>(r);
    while (msg.msg_iovlen > 0 && done >= msg.msg_iov[0].iov_len) {
      done -= msg.msg_iov[0].iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0 && done > 0) {
      msg.msg_iov[0].iov_base =
          static_cast<uint8_t*>(msg.msg_iov[0].iov_base) + done;
      msg.msg_iov[0].iov_len -= done;
    }
  }
  return true;
}

MessageType ReadMessageType(ByteSource& src) {
  uint32_t raw = src.ReadU32();
  if (!src.ok()) return static_cast<MessageType>(0);
  return static_cast<MessageType>(raw);
}

ByteSink MakeErrorResponse(uint64_t request_id, StatusCode status,
                           const std::string& message) {
  ByteSink sink;
  sink.WriteU64(request_id);
  sink.WriteU32(static_cast<uint32_t>(MessageType::kErrorResponse));
  sink.WriteU32(static_cast<uint32_t>(status));
  sink.WriteString(message);
  return sink;
}

}  // namespace rigpm::server
