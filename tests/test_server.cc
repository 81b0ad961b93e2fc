// Query daemon tests (server/server.h, server/protocol.h): wire round
// trips, serving correctness against in-process evaluation, concurrent
// clients, and the protocol error paths — malformed frames, oversize
// requests, unknown types, and clients that disconnect mid-conversation.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/gm_engine.h"
#include "graph/generators.h"
#include "query/pattern_parser.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/delta_log.h"
#include "storage/snapshot.h"
#include "test_util.h"
#include "util/concurrency.h"

namespace rigpm {
namespace {

using rigpm::testing::PaperExample;
using namespace rigpm::server;

std::string UniqueSocketPath() {
  static std::atomic<int> counter{0};
  return (std::filesystem::temp_directory_path() /
          ("rigpm_test_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++) + ".sock"))
      .string();
}

/// A paper-example server on a Unix socket, plus the cold engine it must
/// agree with.
class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = std::make_unique<Graph>(PaperExample::MakeGraph());
    engine_ = std::make_unique<GmEngine>(*graph_);
    catalog_ = std::make_shared<EngineCatalog>();
    catalog_->AdoptEngine("default", *engine_);
    config_.unix_path = UniqueSocketPath();
    config_.num_workers = 4;
    server_ = std::make_unique<QueryServer>(catalog_, config_);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  void TearDown() override { server_->Stop(); }

  QueryClient Connect() {
    QueryClient client;
    std::string error;
    EXPECT_TRUE(client.ConnectUnix(config_.unix_path, &error)) << error;
    return client;
  }

  static QueryRequest PaperRequest(uint32_t max_tuples = 100) {
    QueryRequest req;
    req.patterns = {"(a:0)->(b:1), (a)->(c:2), (b)=>(c)"};
    req.max_return_tuples = max_tuples;
    return req;
  }

  std::unique_ptr<Graph> graph_;
  std::unique_ptr<GmEngine> engine_;
  std::shared_ptr<EngineCatalog> catalog_;
  ServerConfig config_;
  std::unique_ptr<QueryServer> server_;
};

// ------------------------------------------------------------- wire layer

TEST(ServerProtocol, QueryRequestRoundTrips) {
  QueryRequest req;
  req.patterns = {"(a:0)->(b:1)", "(a:0)=>(b:2)"};
  req.limit = 12345;
  req.max_return_tuples = 7;

  ByteSink sink;
  WriteRequestHeader(sink, 42, "alpha");
  req.Serialize(sink);
  ByteSource src(sink.data().data(), sink.size());
  RequestHeader header = ReadRequestHeader(src);
  EXPECT_EQ(header.request_id, 42u);
  EXPECT_EQ(header.graph_id, "alpha");
  EXPECT_EQ(ReadMessageType(src), MessageType::kQueryRequest);
  QueryRequest back = QueryRequest::Deserialize(src);
  ASSERT_TRUE(src.ok()) << src.error();
  EXPECT_EQ(src.remaining(), 0u);
  EXPECT_EQ(back.patterns, req.patterns);
  EXPECT_EQ(back.limit, req.limit);
  EXPECT_EQ(back.max_return_tuples, req.max_return_tuples);
}

TEST(ServerProtocol, QueryResponseRoundTrips) {
  QueryResponse resp;
  resp.status = StatusCode::kOk;
  QueryResultWire r;
  r.num_occurrences = 42;
  r.hit_limit = true;
  r.phase_timings = {{"Reduce", 0.1}, {"Enumerate", 2.5}};
  resp.results.push_back(r);
  resp.tuple_arity = 2;
  resp.tuples = {1, 2, 3, 4};

  ByteSink sink;
  resp.Serialize(sink);
  ByteSource src(sink.data().data(), sink.size());
  EXPECT_EQ(ReadMessageType(src), MessageType::kQueryResponse);
  QueryResponse back = QueryResponse::Deserialize(src);
  ASSERT_TRUE(src.ok()) << src.error();
  ASSERT_EQ(back.results.size(), 1u);
  EXPECT_EQ(back.results[0].num_occurrences, 42u);
  EXPECT_TRUE(back.results[0].hit_limit);
  ASSERT_EQ(back.results[0].phase_timings.size(), 2u);
  EXPECT_EQ(back.results[0].phase_timings[1].name, "Enumerate");
  EXPECT_DOUBLE_EQ(back.results[0].phase_timings[1].ms, 2.5);
  EXPECT_EQ(back.tuples, resp.tuples);
}

TEST(ServerProtocol, TruncatedResponsePayloadFailsSoftly) {
  QueryResponse resp;
  resp.results.resize(1);
  ByteSink sink;
  resp.Serialize(sink);
  for (size_t cut : {size_t{0}, size_t{5}, sink.size() / 2}) {
    ByteSource src(sink.data().data(), cut);
    ReadMessageType(src);
    QueryResponse::Deserialize(src);
    EXPECT_FALSE(src.ok());
  }
}

TEST(ServerProtocol, ShortStatsPayloadsFailToDecode) {
  // Client and daemon are one build: every field is always present, so a
  // payload missing any of them is malformed, never an older daemon's.
  StatsResponse stats;
  stats.uptime_ms = 7;
  stats.default_id = "default";
  stats.tenants.push_back({"default", true, true, 2, 9, 1, 2, 3, 4, 5, 6, 7});
  stats.deletes_applied = 11;
  stats.maintenance_failures = 13;
  ByteSink sink;
  stats.Serialize(sink);
  {
    ByteSource src(sink.data().data(), sink.size());
    ASSERT_EQ(ReadMessageType(src), MessageType::kStatsResponse);
    StatsResponse back = StatsResponse::Deserialize(src);
    ASSERT_TRUE(src.ok()) << src.error();
    EXPECT_EQ(src.remaining(), 0u);
    EXPECT_EQ(back.deletes_applied, 11u);
    EXPECT_EQ(back.maintenance_failures, 13u);
    EXPECT_EQ(back.default_id, "default");
    ASSERT_EQ(back.tenants.size(), 1u);
    EXPECT_EQ(back.tenants[0].queries, 9u);
    EXPECT_EQ(back.tenants[0].hits, 1u);
    EXPECT_EQ(back.tenants[0].entries, 7u);
  }
  for (size_t cut = 0; cut < sink.size(); ++cut) {
    ByteSource src(sink.data().data(), cut);
    ReadMessageType(src);
    StatsResponse::Deserialize(src);
    EXPECT_FALSE(src.ok()) << "prefix of " << cut << " bytes decoded";
  }
}

// --------------------------------------------------------------- serving

TEST_F(ServerTest, SingleQueryMatchesInProcessEvaluation) {
  QueryClient client = Connect();
  std::string error;
  auto resp = client.Query(PaperRequest(), &error);
  ASSERT_TRUE(resp.has_value()) << error;
  ASSERT_EQ(resp->status, StatusCode::kOk) << resp->error;
  ASSERT_EQ(resp->results.size(), 1u);
  EXPECT_EQ(resp->results[0].num_occurrences, 4u);
  // The served phase names are GmEngine's six, in execution order.
  std::string phases;
  for (const PhaseTimingWire& pt : resp->results[0].phase_timings) {
    phases += pt.name + " ";
  }
  EXPECT_EQ(phases, "Reduce Prefilter Simulate BuildRig Order Enumerate ");

  // The echoed tuples are the exact in-process answer set.
  ASSERT_EQ(resp->tuple_arity, 3u);
  std::set<std::vector<NodeId>> served;
  for (size_t i = 0; i + 3 <= resp->tuples.size(); i += 3) {
    served.insert({resp->tuples[i], resp->tuples[i + 1],
                   resp->tuples[i + 2]});
  }
  EXPECT_EQ(served, PaperExample::ExpectedAnswer());
}

TEST(ServerLoops, LoopPatternsServeTheBruteForceCount) {
  // Node 0 has label 0, nodes 1-3 label 1; 1 has a self-loop and 2, 3 form
  // a cycle.
  Graph g = Graph::FromEdges({0, 1, 1, 1},
                             {{0, 1}, {1, 1}, {0, 2}, {2, 3}, {3, 2}});
  GmEngine engine(g);
  auto catalog = std::make_shared<EngineCatalog>();
  catalog->AdoptEngine("default", engine);
  ServerConfig config;
  config.unix_path = UniqueSocketPath();
  config.num_workers = 2;
  QueryServer server(catalog, config);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  QueryClient client;
  ASSERT_TRUE(client.ConnectUnix(config.unix_path, &error)) << error;
  // Pattern -> occurrences: three nodes on a cycle, one with a self-loop.
  for (const auto& [pattern, count] :
       std::vector<std::pair<std::string, size_t>>{
           {"(b:1)=>(b)", 3}, {"(a:0)->(b:1), (b)->(b)", 1}}) {
    ASSERT_EQ(testing::BruteForceAnswer(g, *ParsePattern(pattern)).size(),
              count);
    QueryRequest req;
    req.patterns = {pattern};
    auto resp = client.Query(req, &error);
    ASSERT_TRUE(resp.has_value()) << error;
    ASSERT_EQ(resp->status, StatusCode::kOk) << resp->error;
    EXPECT_EQ(resp->results[0].num_occurrences, count) << pattern;
  }
  client.Close();
  server.Stop();
}

TEST_F(ServerTest, TupleEchoIsCappedByRequest) {
  QueryClient client = Connect();
  auto resp = client.Query(PaperRequest(/*max_tuples=*/2));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->results[0].num_occurrences, 4u);  // counting is uncapped
  EXPECT_EQ(resp->tuples.size(), 2u * 3u);
}

TEST_F(ServerTest, MultiPatternRequestKeepsOrder) {
  QueryRequest req;
  req.patterns = {"(a:0)->(b:1), (a)->(c:2), (b)=>(c)",  // the paper query: 4
                  "(a:0)->(b:1)",                        // every a->b edge
                  "(x:1)=>(y:2)"};                       // b reaches c
  QueryClient client = Connect();
  std::string error;
  auto resp = client.Query(req, &error);
  ASSERT_TRUE(resp.has_value()) << error;
  ASSERT_EQ(resp->status, StatusCode::kOk) << resp->error;
  ASSERT_EQ(resp->results.size(), 3u);

  GmOptions opts;
  for (size_t i = 0; i < req.patterns.size(); ++i) {
    auto q = ParsePattern(req.patterns[i]);
    ASSERT_TRUE(q.has_value());
    GmResult direct = engine_->Evaluate(*q, opts);
    EXPECT_EQ(resp->results[i].num_occurrences, direct.num_occurrences)
        << "query " << i;
  }
}

TEST_F(ServerTest, StatsCountServedQueries) {
  QueryClient client = Connect();
  for (int i = 0; i < 3; ++i) {
    auto resp = client.Query(PaperRequest(0));
    ASSERT_TRUE(resp.has_value());
  }
  auto stats = client.Stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->queries_served, 3u);
  EXPECT_EQ(stats->occurrences_emitted, 12u);
  EXPECT_EQ(stats->errors, 0u);
  EXPECT_GE(stats->requests_served, 3u);
  EXPECT_GE(stats->latency_p99_ms, stats->latency_p50_ms);
}

TEST_F(ServerTest, SecondServerOnLiveSocketFailsInsteadOfHijacking) {
  {
    QueryServer second(catalog_, config_);
    std::string error;
    EXPECT_FALSE(second.Start(&error));
    EXPECT_NE(error.find("already"), std::string::npos) << error;
  }
  // The original daemon is untouched — in particular the failed server's
  // destructor must not unlink the live socket it never bound.
  QueryClient client = Connect();
  auto resp = client.Query(PaperRequest(0));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, StatusCode::kOk);
}

TEST_F(ServerTest, NonSocketPathIsRefusedNotDeleted) {
  // A mistyped --socket pointing at a regular file must not delete it.
  std::string path = UniqueSocketPath();
  {
    std::ofstream out(path);
    out << "precious";
  }
  ServerConfig config = config_;
  config.unix_path = path;
  QueryServer server(catalog_, config);
  std::string error;
  EXPECT_FALSE(server.Start(&error));
  EXPECT_NE(error.find("not a socket"), std::string::npos) << error;

  std::ifstream in(path);
  std::string content;
  in >> content;
  EXPECT_EQ(content, "precious");
  std::remove(path.c_str());
}

TEST_F(ServerTest, ShutdownRequestStopsTheServer) {
  QueryClient client = Connect();
  std::string error;
  EXPECT_TRUE(client.Shutdown(&error)) << error;
  server_->Wait();  // returns because the worker requested the stop
  EXPECT_FALSE(server_->running());
}

// The acceptance bar: several concurrent clients, every response identical
// to EvaluateCollect on the same engine.
TEST_F(ServerTest, ConcurrentClientsMatchInProcessCounts) {
  const std::vector<std::string> patterns = {
      "(a:0)->(b:1), (a)->(c:2), (b)=>(c)",
      "(a:0)->(b:1)",
      "(a:0)=>(c:2)",
      "(b:1)=>(c:2)",
  };
  std::vector<uint64_t> expected;
  for (const std::string& p : patterns) {
    auto q = ParsePattern(p);
    ASSERT_TRUE(q.has_value());
    expected.push_back(engine_->EvaluateCollect(*q).size());
  }

  constexpr int kClients = 6;
  constexpr int kRoundsPerClient = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      QueryClient client;
      std::string error;
      if (!client.ConnectUnix(config_.unix_path, &error)) {
        ++failures;
        return;
      }
      for (int round = 0; round < kRoundsPerClient; ++round) {
        size_t pick = static_cast<size_t>(c + round) % patterns.size();
        QueryRequest req;
        req.patterns = {patterns[pick]};
        auto resp = client.Query(req, &error);
        if (!resp.has_value() || resp->status != StatusCode::kOk ||
            resp->results.size() != 1 ||
            resp->results[0].num_occurrences != expected[pick]) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  auto stats = server_->Snapshot();
  EXPECT_EQ(stats.queries_served,
            static_cast<uint64_t>(kClients) * kRoundsPerClient);
  EXPECT_EQ(stats.errors, 0u);
}

// A snapshot-backed server (the daemon's deployment shape) serves the same
// counts as the cold engine it was saved from.
TEST(ServerSnapshot, WarmServerMatchesColdEngine) {
  GeneratorOptions gopts;
  gopts.num_nodes = 300;
  gopts.num_edges = 1500;
  gopts.num_labels = 4;
  gopts.seed = 5;
  Graph g = GeneratePowerLaw(gopts);
  GmEngine cold(g);

  std::string snap_path = UniqueSocketPath() + ".snap";
  std::string error;
  ASSERT_TRUE(SaveEngineSnapshot(cold, snap_path, &error)) << error;
  auto catalog = std::make_shared<EngineCatalog>();
  EngineSource source;
  source.snapshot_path = snap_path;
  ASSERT_TRUE(catalog->Register("default", source, &error)) << error;

  ServerConfig config;
  config.unix_path = UniqueSocketPath();
  config.num_workers = 2;
  QueryServer server(catalog, config);
  ASSERT_TRUE(server.Start(&error)) << error;

  const std::vector<std::string> patterns = {
      "(a:0)->(b:1)", "(a:0)=>(b:2)", "(a:1)->(b:2), (a)=>(c:3)"};
  QueryClient client;
  ASSERT_TRUE(client.ConnectUnix(config.unix_path, &error)) << error;
  for (const std::string& p : patterns) {
    QueryRequest req;
    req.patterns = {p};
    auto resp = client.Query(req, &error);
    ASSERT_TRUE(resp.has_value()) << error;
    ASSERT_EQ(resp->status, StatusCode::kOk) << resp->error;
    auto q = ParsePattern(p);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(resp->results[0].num_occurrences,
              cold.EvaluateCollect(*q).size())
        << p;
  }
  client.Close();
  server.Stop();
  std::remove(snap_path.c_str());
}

// ------------------------------------------------------------ error paths

TEST_F(ServerTest, ParseErrorIsReportedNotFatal) {
  QueryClient client = Connect();
  QueryRequest req;
  req.patterns = {"this is not a pattern"};
  auto resp = client.Query(req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, StatusCode::kParseError);
  EXPECT_FALSE(resp->error.empty());

  // Same connection still serves well-formed queries.
  auto ok = client.Query(PaperRequest());
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, StatusCode::kOk);

  // A label too large for 32 bits is a parse error too, and the connection
  // keeps serving.
  req.patterns = {"(a:0)->(b:99999999999999999999999)"};
  auto big = client.Query(req);
  ASSERT_TRUE(big.has_value());
  EXPECT_EQ(big->status, StatusCode::kParseError);
  EXPECT_NE(big->error.find("label"), std::string::npos) << big->error;
  auto after = client.Query(PaperRequest());
  ASSERT_TRUE(after.has_value());
  ASSERT_EQ(after->status, StatusCode::kOk) << after->error;
  ASSERT_EQ(after->results.size(), 1u);
  EXPECT_EQ(after->results[0].num_occurrences, 4u);
}

TEST_F(ServerTest, EmptyRequestIsRejected) {
  QueryClient client = Connect();
  auto resp = client.Query(QueryRequest{});
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, StatusCode::kBadRequest);
  EXPECT_EQ(resp->error, "request has no patterns");
}

/// A bodiless request payload, built with the protocol's own header writer.
ByteSink RequestPayload(uint64_t id, MessageType type) {
  ByteSink sink;
  WriteRequestHeader(sink, id, "");
  sink.WriteU32(static_cast<uint32_t>(type));
  return sink;
}

// Speak raw bytes to exercise the framing errors a well-behaved client
// never produces.
class RawConnection {
 public:
  explicit RawConnection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConnection() { Close(); }
  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Send(const void* data, size_t n) {
    ASSERT_EQ(::send(fd_, data, n, MSG_NOSIGNAL),
              static_cast<ssize_t>(n));
  }
  void SendU32(uint32_t v) { Send(&v, sizeof(v)); }
  void SendFrame(const ByteSink& payload) {
    std::string error;
    ASSERT_TRUE(WriteFrame(fd_, payload, &error)) << error;
  }

  /// Reads one response frame's payload; `status` gets how the read ended.
  std::vector<uint8_t> ReadPayload(FrameReadStatus* status) {
    std::vector<uint8_t> payload;
    std::string error;
    *status = ReadFrame(fd_, kDefaultMaxFrameBytes, &payload, &error);
    return payload;
  }

  struct Response {
    uint64_t id = 0;
    MessageType type{};
    StatusCode status{};  // error responses only
  };
  /// Reads one response frame: the echoed id and the message type (plus the
  /// status of an error response); nullopt on EOF/error.
  std::optional<Response> ReadResponse() {
    FrameReadStatus status;
    std::vector<uint8_t> payload = ReadPayload(&status);
    if (status != FrameReadStatus::kOk) return std::nullopt;
    ByteSource src(payload.data(), payload.size());
    Response r;
    r.id = src.ReadU64();
    r.type = ReadMessageType(src);
    if (r.type == MessageType::kErrorResponse) {
      r.status = static_cast<StatusCode>(src.ReadU32());
    }
    return src.ok() ? std::optional<Response>(r) : std::nullopt;
  }
  std::optional<MessageType> ReadResponseType() {
    std::optional<Response> r = ReadResponse();
    return r.has_value() ? std::optional<MessageType>(r->type) : std::nullopt;
  }

 private:
  int fd_ = -1;
};

TEST_F(ServerTest, UnknownRequestTypeGetsErrorResponse) {
  RawConnection raw(config_.unix_path);
  ASSERT_TRUE(raw.ok());
  // 8 is a retired type number (a tenant listing, now the stats rows).
  for (uint32_t type : {0xBEEFu, 8u}) {
    raw.SendFrame(RequestPayload(type, static_cast<MessageType>(type)));
    auto resp = raw.ReadResponse();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->id, type);
    EXPECT_EQ(resp->type, MessageType::kErrorResponse);
  }

  // The connection survives: a valid ping on the same socket still works.
  raw.SendFrame(RequestPayload(6, MessageType::kPingRequest));
  auto resp = raw.ReadResponse();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->id, 6u);
  EXPECT_EQ(resp->type, MessageType::kPingResponse);
}

TEST_F(ServerTest, EmptyFrameGetsErrorResponse) {
  RawConnection raw(config_.unix_path);
  ASSERT_TRUE(raw.ok());
  raw.SendU32(0);  // zero-length frame: no room for a header
  auto resp = raw.ReadResponse();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->id, 0u);
  EXPECT_EQ(resp->type, MessageType::kErrorResponse);
  // Protocol rejections land in the operator-facing error counter.
  EXPECT_EQ(server_->Snapshot().errors, 1u);
}

TEST_F(ServerTest, MalformedRequestBodyGetsErrorResponse) {
  // Valid type, body truncated mid-struct: the ByteSource fails softly and
  // the server reports kBadRequest instead of crashing.
  RawConnection raw(config_.unix_path);
  ASSERT_TRUE(raw.ok());
  ByteSink payload = RequestPayload(8, MessageType::kQueryRequest);
  payload.WriteU32(1);  // pattern count only; fields missing
  raw.SendFrame(payload);
  auto resp = raw.ReadResponse();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->id, 8u);
  EXPECT_EQ(resp->type, MessageType::kErrorResponse);
  EXPECT_EQ(resp->status, StatusCode::kBadRequest);
}

TEST_F(ServerTest, EveryTruncatedQueryFrameDrawsOneErrorInPlace) {
  // Every proper prefix of a valid query payload (header + body), sent as
  // a whole frame, is answered with exactly one kBadRequest: id 0 while the
  // header itself is cut, the request's id once the header is whole.
  QueryClient client = Connect();
  ByteSink full;
  WriteRequestHeader(full, 77, "default");
  PaperRequest().Serialize(full);
  const size_t header_bytes = 2 * sizeof(uint64_t) + std::strlen("default");
  for (size_t cut = 0; cut < full.size(); ++cut) {
    ByteSink prefix;
    prefix.WriteRaw(full.data().data(), cut);
    std::string error;
    ASSERT_TRUE(WriteFrame(client.fd(), prefix, &error)) << error;
    std::vector<uint8_t> payload;
    ASSERT_EQ(ReadFrame(client.fd(), kDefaultMaxFrameBytes, &payload, &error),
              FrameReadStatus::kOk)
        << error;
    ByteSource src(payload.data(), payload.size());
    EXPECT_EQ(src.ReadU64(), cut >= header_bytes ? 77u : 0u) << cut;
    EXPECT_EQ(ReadMessageType(src), MessageType::kErrorResponse) << cut;
    EXPECT_EQ(static_cast<StatusCode>(src.ReadU32()), StatusCode::kBadRequest)
        << cut;
  }
  // No extra answer is queued: the next round trip gets its own response.
  std::string error;
  auto resp = client.Query(PaperRequest(), &error);
  ASSERT_TRUE(resp.has_value()) << error;
  ASSERT_EQ(resp->status, StatusCode::kOk) << resp->error;
  EXPECT_EQ(resp->results[0].num_occurrences, 4u);
  EXPECT_EQ(server_->Snapshot().errors, full.size());
}

TEST_F(ServerTest, OversizeFrameIsRejectedAndConnectionClosed) {
  // Re-start with a small frame cap so the test doesn't ship megabytes.
  server_->Stop();
  config_.max_frame_bytes = 1024;
  config_.unix_path = UniqueSocketPath();
  server_ = std::make_unique<QueryServer>(catalog_, config_);
  std::string error;
  ASSERT_TRUE(server_->Start(&error)) << error;

  RawConnection raw(config_.unix_path);
  ASSERT_TRUE(raw.ok());
  raw.SendU32(1 << 20);  // declared length far over the 1 KiB cap
  auto type = raw.ReadResponseType();
  ASSERT_TRUE(type.has_value());
  EXPECT_EQ(*type, MessageType::kErrorResponse);
  // The stream cannot be resynchronized; the server hangs up.
  EXPECT_FALSE(raw.ReadResponseType().has_value());

  // And keeps serving fresh connections.
  QueryClient client = Connect();
  auto resp = client.Query(PaperRequest());
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, StatusCode::kOk);
}

TEST_F(ServerTest, OversizeResponseBecomesErrorNotCorruptFrame) {
  // Re-start with a frame cap the paper request (94 bytes) and a pong fit
  // under but the query response (phase timings + echoed tuples) does not;
  // the server must substitute a small error response rather than send a
  // frame the client rejects as oversize.
  server_->Stop();
  config_.max_frame_bytes = 120;
  config_.unix_path = UniqueSocketPath();
  server_ = std::make_unique<QueryServer>(catalog_, config_);
  std::string error;
  ASSERT_TRUE(server_->Start(&error)) << error;

  QueryClient client = Connect();
  auto resp = client.Query(PaperRequest(), &error);
  ASSERT_TRUE(resp.has_value()) << error;
  EXPECT_EQ(resp->status, StatusCode::kInternalError);
  EXPECT_NE(resp->error.find("frame cap"), std::string::npos) << resp->error;

  // The connection survives for responses that do fit, and the substituted
  // error was counted.
  EXPECT_TRUE(client.Ping(&error)) << error;
  EXPECT_GE(server_->Snapshot().errors, 1u);
}

TEST_F(ServerTest, ClientDisconnectMidFrameDoesNotKillServer) {
  {
    RawConnection raw(config_.unix_path);
    ASSERT_TRUE(raw.ok());
    raw.SendU32(100);  // promise 100 bytes...
    raw.SendU32(1);    // ...deliver 4, then vanish
  }
  {
    // Send a full valid query but disappear without reading the response.
    QueryClient client = Connect();
    ByteSink sink;
    WriteRequestHeader(sink, 1, "");
    PaperRequest().Serialize(sink);
    std::string error;
    ASSERT_TRUE(WriteFrame(client.fd(), sink, &error)) << error;
    client.Close();
  }
  // The server is still alive and correct for the next client.
  QueryClient client = Connect();
  auto resp = client.Query(PaperRequest());
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, StatusCode::kOk);
  EXPECT_EQ(resp->results[0].num_occurrences, 4u);
}

/// A query request payload addressed to the default tenant.
ByteSink QueryPayload(uint64_t id, const QueryRequest& req) {
  ByteSink sink;
  WriteRequestHeader(sink, id, "");
  req.Serialize(sink);
  return sink;
}

/// Splits a query response payload into its echoed id and its response.
QueryResponse DecodeQueryPayload(const std::vector<uint8_t>& payload,
                                 uint64_t* id) {
  ByteSource src(payload.data(), payload.size());
  *id = src.ReadU64();
  EXPECT_EQ(ReadMessageType(src), MessageType::kQueryResponse);
  QueryResponse resp = QueryResponse::Deserialize(src);
  EXPECT_TRUE(src.ok()) << src.error();
  EXPECT_EQ(src.remaining(), 0u);
  return resp;
}

TEST_F(ServerTest, HitsReturnExactlyTheBytesOfTheirMiss) {
  // A hit is found from the request's bytes before its body is decoded,
  // and is served from the cached response: its payload must equal its
  // miss's after the echoed id.
  RawConnection raw(config_.unix_path);
  ASSERT_TRUE(raw.ok());
  auto round_trip = [&](uint64_t id, const QueryRequest& req) {
    raw.SendFrame(QueryPayload(id, req));
    FrameReadStatus status;
    std::vector<uint8_t> payload = raw.ReadPayload(&status);
    EXPECT_EQ(status, FrameReadStatus::kOk);
    return payload;
  };
  const std::vector<uint8_t> miss = round_trip(1, PaperRequest());
  const std::vector<uint8_t> hit = round_trip(2, PaperRequest());
  ASSERT_GT(miss.size(), sizeof(uint64_t));
  ASSERT_EQ(hit.size(), miss.size());
  EXPECT_TRUE(std::equal(miss.begin() + sizeof(uint64_t), miss.end(),
                         hit.begin() + sizeof(uint64_t)));
  uint64_t id = 0;
  const QueryResponse served = DecodeQueryPayload(hit, &id);
  EXPECT_EQ(id, 2u);
  ASSERT_EQ(served.status, StatusCode::kOk) << served.error;
  ASSERT_EQ(served.results.size(), 1u);
  EXPECT_EQ(served.results[0].num_occurrences, 4u);
  EXPECT_EQ(served.tuples.size(), 4u * served.tuple_arity);
  StatsResponse stats = server_->Snapshot();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);

  // A copy that differs only in its tuple cap is its own miss, and echoes
  // its own number of tuples.
  const QueryResponse capped =
      DecodeQueryPayload(round_trip(3, PaperRequest(2)), &id);
  EXPECT_EQ(id, 3u);
  ASSERT_EQ(capped.status, StatusCode::kOk) << capped.error;
  EXPECT_EQ(capped.results[0].num_occurrences, 4u);
  EXPECT_EQ(capped.tuples.size(), 2u * capped.tuple_arity);
  stats = server_->Snapshot();
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.catalog_hits, 3u);

  // An unparsable pattern to the resident tenant is probed and missed, then
  // rejected each time: no cache entry, no cache or catalog count.
  QueryRequest bad;
  bad.patterns = {"not a pattern"};
  for (uint64_t bad_id : {4u, 5u}) {
    const QueryResponse rejected =
        DecodeQueryPayload(round_trip(bad_id, bad), &id);
    EXPECT_EQ(id, bad_id);
    EXPECT_EQ(rejected.status, StatusCode::kParseError);
  }
  const StatsResponse after = server_->Snapshot();
  EXPECT_EQ(after.cache_hits, stats.cache_hits);
  EXPECT_EQ(after.cache_misses, stats.cache_misses);
  EXPECT_EQ(after.cache_singleflight_waits, stats.cache_singleflight_waits);
  EXPECT_EQ(after.cache_entries, stats.cache_entries);
  EXPECT_EQ(after.catalog_hits, stats.catalog_hits);
  EXPECT_EQ(after.catalog_misses, stats.catalog_misses);
  EXPECT_EQ(after.errors, 2u);
}

TEST_F(ServerTest, HalfClosedClientGetsItsAnswerThenEof) {
  // The client writes one query and shuts its write side at once. The loop
  // stops reading at the short read that brought the frame, so the FIN may
  // only show on a later event: the answer must still be sent, then EOF,
  // and the connection must be reaped.
  RawConnection raw(config_.unix_path);
  ASSERT_TRUE(raw.ok());
  raw.SendFrame(QueryPayload(9, PaperRequest()));
  ASSERT_EQ(::shutdown(raw.fd(), SHUT_WR), 0);
  FrameReadStatus status;
  std::vector<uint8_t> payload = raw.ReadPayload(&status);
  ASSERT_EQ(status, FrameReadStatus::kOk);
  uint64_t id = 0;
  const QueryResponse resp = DecodeQueryPayload(payload, &id);
  EXPECT_EQ(id, 9u);
  ASSERT_EQ(resp.status, StatusCode::kOk) << resp.error;
  EXPECT_EQ(resp.results[0].num_occurrences, 4u);
  raw.ReadPayload(&status);
  EXPECT_EQ(status, FrameReadStatus::kEof);
  for (int spin = 0; spin < 200; ++spin) {
    if (server_->Snapshot().active_connections == 0u) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->Snapshot().active_connections, 0u);
  EXPECT_EQ(server_->Snapshot().requests_served, 1u);
}

// ---------------------------- event loop: slow clients, idle connections

TEST_F(ServerTest, SlowLorisClientsDoNotOccupyWorkers) {
  // 64 connections drip one byte of a frame header each — with the old
  // thread-per-connection core and one worker, the first of them would
  // have parked the whole pool forever. Under the event loop a partial
  // frame is just buffered bytes; no worker is involved until a frame
  // completes.
  server_->Stop();
  config_.num_workers = 1;
  config_.unix_path = UniqueSocketPath();
  server_ = std::make_unique<QueryServer>(catalog_, config_);
  std::string error;
  ASSERT_TRUE(server_->Start(&error)) << error;

  constexpr int kLoris = 64;
  std::vector<std::unique_ptr<RawConnection>> loris;
  loris.reserve(kLoris);
  for (int i = 0; i < kLoris; ++i) {
    auto raw = std::make_unique<RawConnection>(config_.unix_path);
    ASSERT_TRUE(raw->ok());
    const uint8_t byte = 0x20;  // first byte of some future length prefix
    raw->Send(&byte, 1);
    loris.push_back(std::move(raw));
  }

  // A fresh client gets served promptly while all 64 sit mid-header.
  QueryClient client = Connect();
  for (int round = 0; round < 3; ++round) {
    auto resp = client.Query(PaperRequest(), &error);
    ASSERT_TRUE(resp.has_value()) << error;
    EXPECT_EQ(resp->status, StatusCode::kOk);
    EXPECT_EQ(resp->results[0].num_occurrences, 4u);
  }
  // Only the real requests ever reached the worker.
  EXPECT_EQ(server_->Snapshot().requests_served, 3u);
  EXPECT_GE(server_->Snapshot().active_connections,
            static_cast<uint64_t>(kLoris));
}

TEST_F(ServerTest, BackToBackRequestsEachEchoTheirId) {
  // A raw client may write several frames without waiting; one response
  // comes back per request, in completion order, each carrying its id.
  RawConnection raw(config_.unix_path);
  ASSERT_TRUE(raw.ok());
  raw.SendFrame(RequestPayload(1, MessageType::kPingRequest));
  raw.SendFrame(RequestPayload(2, MessageType::kStatsRequest));
  raw.SendFrame(RequestPayload(3, MessageType::kPingRequest));
  std::map<uint64_t, MessageType> answers;
  for (int i = 0; i < 3; ++i) {
    auto resp = raw.ReadResponse();
    ASSERT_TRUE(resp.has_value());
    EXPECT_TRUE(answers.emplace(resp->id, resp->type).second)
        << "repeated id " << resp->id;
  }
  const std::map<uint64_t, MessageType> expected = {
      {1, MessageType::kPingResponse},
      {2, MessageType::kStatsResponse},
      {3, MessageType::kPingResponse}};
  EXPECT_EQ(answers, expected);
}

TEST_F(ServerTest, ConnectionCapShedsExcessConnections) {
  server_->Stop();
  config_.max_connections = 3;
  config_.unix_path = UniqueSocketPath();
  server_ = std::make_unique<QueryServer>(catalog_, config_);
  std::string error;
  ASSERT_TRUE(server_->Start(&error)) << error;

  std::vector<std::unique_ptr<RawConnection>> held;
  for (int i = 0; i < 3; ++i) {
    auto raw = std::make_unique<RawConnection>(config_.unix_path);
    ASSERT_TRUE(raw->ok());
    held.push_back(std::move(raw));
  }
  // Give the loop a moment to register all three, then the fourth must be
  // accepted-and-closed: its first read sees EOF instead of a response.
  for (int spin = 0; spin < 100; ++spin) {
    if (server_->Snapshot().active_connections == 3u) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server_->Snapshot().active_connections, 3u);
  RawConnection over(config_.unix_path);
  ASSERT_TRUE(over.ok());
  // The write may race the server-side close.
  WriteFrame(over.fd(), RequestPayload(1, MessageType::kPingRequest), nullptr);
  EXPECT_FALSE(over.ReadResponseType().has_value());

  // Dropping one held connection frees a slot for the next client.
  held.pop_back();
  for (int spin = 0; spin < 100; ++spin) {
    if (server_->Snapshot().active_connections <= 2u) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  QueryClient client = Connect();
  EXPECT_TRUE(client.Ping(&error)) << error;
}

TEST_F(ServerTest, IdleTimeoutReapsQuietConnections) {
  server_->Stop();
  config_.idle_timeout_ms = 100;
  config_.unix_path = UniqueSocketPath();
  server_ = std::make_unique<QueryServer>(catalog_, config_);
  std::string error;
  ASSERT_TRUE(server_->Start(&error)) << error;

  RawConnection raw(config_.unix_path);
  ASSERT_TRUE(raw.ok());
  // Quiet past the deadline (+ a loop tick of slack): the server hangs up.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_FALSE(raw.ReadResponseType().has_value());

  // An active client is never reaped between its requests' bytes.
  QueryClient client = Connect();
  EXPECT_TRUE(client.Ping(&error)) << error;
}

// ------------------------------------------------- request-id pipelining

TEST_F(ServerTest, PipelinedQueriesMatchInProcessBatchEvaluation) {
  // N tagged requests on ONE socket, more than the worker pool is wide;
  // responses are matched by request id regardless of completion order and
  // every count must equal the in-process EvaluateBatch result.
  const std::vector<std::string> patterns = {
      "(a:0)->(b:1)",
      "(a:0)->(c:2)",
      "(a:0)->(b:1), (a)->(c:2), (b)=>(c)",
      "(b:1)=>(c:2)",
  };
  std::vector<PatternQuery> queries;
  for (const std::string& p : patterns) {
    auto q = ParsePattern(p);
    ASSERT_TRUE(q.has_value()) << p;
    queries.push_back(std::move(*q));
  }
  std::vector<GmResult> expected = engine_->EvaluateBatch(
      std::span<const PatternQuery>(queries), GmOptions{}, nullptr);

  constexpr int kRepeats = 4;  // 16 requests in flight on one connection
  QueryClient client = Connect();
  std::string error;
  std::vector<QueryRequest> requests;
  for (int r = 0; r < kRepeats; ++r) {
    for (const std::string& p : patterns) {
      QueryRequest req;
      req.patterns = {p};
      requests.push_back(req);
    }
  }
  auto responses = client.QueryPipelined(requests, &error);
  ASSERT_TRUE(responses.has_value()) << error;
  ASSERT_EQ(responses->size(), requests.size());
  for (size_t i = 0; i < responses->size(); ++i) {
    const QueryResponse& resp = (*responses)[i];
    ASSERT_EQ(resp.status, StatusCode::kOk) << resp.error;
    EXPECT_EQ(resp.results[0].num_occurrences,
              expected[i % patterns.size()].num_occurrences)
        << patterns[i % patterns.size()];
  }
  EXPECT_EQ(server_->Snapshot().errors, 0u);
}

TEST_F(ServerTest, TaggedResponsesCarryTheirRequestId) {
  // Manual send/receive (no convenience wrapper): ids echo back and every
  // in-flight request gets exactly one response.
  QueryClient client = Connect();
  std::string error;
  std::set<uint64_t> sent;
  for (int i = 0; i < 8; ++i) {
    auto id = client.SendTagged(PaperRequest(), &error);
    ASSERT_TRUE(id.has_value()) << error;
    EXPECT_TRUE(sent.insert(*id).second) << "duplicate id " << *id;
  }
  for (int i = 0; i < 8; ++i) {
    auto tagged = client.ReceiveTagged(&error);
    ASSERT_TRUE(tagged.has_value()) << error;
    EXPECT_EQ(sent.erase(tagged->request_id), 1u)
        << "unknown or repeated id " << tagged->request_id;
    EXPECT_EQ(tagged->response.status, StatusCode::kOk);
    EXPECT_EQ(tagged->response.results[0].num_occurrences, 4u);
  }
  EXPECT_TRUE(sent.empty());
}

// ------------------------------------------- cache hits on the event loop

TEST_F(ServerTest, CacheHitOvertakesAColdQueryOnTheOnlyWorker) {
  // The loop answers a cache hit itself, so a hit never queues behind an
  // evaluation. With one worker busy on a cold query B, repeats of warm
  // queries must come back first; dispatched like a miss, they would wait
  // in the dispatch queue until B finished. One of them, an 8-node cycle
  // of one label, is as symmetric as a pattern gets: its key is its
  // request's bytes, as cheap as any other.
  server_->Stop();
  GeneratorOptions gopts;
  gopts.num_nodes = 700;
  gopts.num_edges = 5600;
  gopts.num_labels = 1;
  gopts.seed = 5;
  const Graph dense = GenerateErdosRenyi(gopts);
  const GmEngine dense_engine(dense);
  auto catalog = std::make_shared<EngineCatalog>();
  catalog->AdoptEngine("paper", *engine_);
  catalog->AdoptEngine("dense", dense_engine);
  config_.num_workers = 1;
  config_.unix_path = UniqueSocketPath();
  QueryServer server(catalog, config_);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  QueryClient client = Connect();
  client.SetGraph("paper");
  const QueryRequest a = PaperRequest();
  QueryRequest cycle;
  cycle.patterns = {
      "(a:0)->(b:0), (b)->(c:0), (c)->(d:0), (d)->(e:0), (e)->(f:0), "
      "(f)->(g:0), (g)->(h:0), (h)->(a)"};
  for (const QueryRequest& warm_up : {a, cycle}) {
    auto warm = client.Query(warm_up, &error);
    ASSERT_TRUE(warm.has_value()) << error;
    ASSERT_EQ(warm->status, StatusCode::kOk) << warm->error;
  }

  // B: 2-hop descendant paths in a dense one-label graph. Its RIG pairs
  // every node with every node it reaches, and echoing a tuple gives the
  // last search step a sink that visits each of kSlowLimit occurrences:
  // about 130 ms on 4 vCPUs in an optimized build, against microseconds
  // for a hit.
  constexpr uint64_t kSlowLimit = 2'000'000;
  QueryRequest b;
  b.patterns = {"(x:0)=>(y:0), (y)=>(z:0)"};
  b.limit = kSlowLimit;
  b.max_return_tuples = 1;
  client.SetGraph("dense");
  auto id_b = client.SendTagged(b, &error);
  ASSERT_TRUE(id_b.has_value()) << error;
  client.SetGraph("paper");
  auto id_a = client.SendTagged(a, &error);
  ASSERT_TRUE(id_a.has_value()) << error;
  auto id_cycle = client.SendTagged(cycle, &error);
  ASSERT_TRUE(id_cycle.has_value()) << error;

  std::map<uint64_t, QueryResponse> answers;
  uint64_t last_id = 0;
  for (int i = 0; i < 3; ++i) {
    auto tagged = client.ReceiveTagged(&error);
    ASSERT_TRUE(tagged.has_value()) << error;
    ASSERT_EQ(tagged->response.status, StatusCode::kOk)
        << tagged->response.error;
    last_id = tagged->request_id;
    answers[last_id] = tagged->response;
  }
  EXPECT_EQ(last_id, *id_b);
  ASSERT_EQ(answers.size(), 3u);
  EXPECT_EQ(answers[*id_a].results[0].num_occurrences, 4u);
  const uint64_t cycle_count =
      engine_->Evaluate(*ParsePattern(cycle.patterns[0])).num_occurrences;
  EXPECT_EQ(answers[*id_cycle].results[0].num_occurrences, cycle_count);
  EXPECT_EQ(answers[*id_b].results[0].num_occurrences, kSlowLimit);
  EXPECT_TRUE(answers[*id_b].results[0].hit_limit);
  server.Stop();
}

TEST_F(ServerTest, EveryRequestIsCountedOnce) {
  // A pipelined mix passes through the loop, the workers or both: in the
  // first round misses, three copies of one miss in flight at once, parse
  // errors (one to the default tenant, one to the snapshot tenant before
  // anything opens it, one to an unknown id), an unknown graph id and the
  // cold open of a snapshot tenant; in the second, hits and another parse
  // error. Whichever way each request goes, the serving,
  // cache and catalog counters must each see it once, and a body's
  // rejection wins over its tenant's state.
  server_->Stop();
  const std::string snap_path = UniqueSocketPath() + ".snap";
  std::string error;
  ASSERT_TRUE(SaveEngineSnapshot(*engine_, snap_path, &error)) << error;
  catalog_ = std::make_shared<EngineCatalog>();
  catalog_->AdoptEngine("default", *engine_);
  EngineSource source;
  source.snapshot_path = snap_path;
  ASSERT_TRUE(catalog_->Register("snap", source, &error)) << error;
  config_.unix_path = UniqueSocketPath();
  server_ = std::make_unique<QueryServer>(catalog_, config_);
  ASSERT_TRUE(server_->Start(&error)) << error;

  const std::string p1 = "(a:0)->(b:1)";
  const std::string p2 = "(a:0)->(c:2)";
  const std::string p3 = "(a:0)->(b:1), (a)->(c:2), (b)=>(c)";
  struct Sent {
    std::string graph;
    QueryRequest req;
    StatusCode status;  // kOk: well-formed and addressed to a known tenant
  };
  constexpr StatusCode kOk = StatusCode::kOk;
  constexpr StatusCode kParse = StatusCode::kParseError;
  auto pattern = [](const std::string& graph, const std::string& text,
                    StatusCode status) {
    QueryRequest req;
    req.patterns = {text};
    return Sent{graph, req, status};
  };
  const std::vector<Sent> cold_round = {
      pattern("", p1, kOk),
      pattern("", p2, kOk),
      pattern("", p3, kOk),
      pattern("", p3, kOk),
      pattern("", p3, kOk),
      pattern("", "not a pattern", kParse),
      pattern("snap", "not a pattern", kParse),
      pattern("nope", "not a pattern", kParse),
      pattern("nope", p1, StatusCode::kBadRequest),
      pattern("snap", p1, kOk),
      pattern("snap", p1, kOk),
  };
  const std::vector<Sent> warm_round = {
      pattern("", p1, kOk),
      pattern("", p1, kOk),
      pattern("", p3, kOk),
      pattern("snap", p1, kOk),
      pattern("", "(a:0)->", kParse),
  };

  QueryClient client = Connect();
  uint64_t frames = 0;
  uint64_t valid = 0;
  uint64_t failed = 0;
  for (const std::vector<Sent>* round : {&cold_round, &warm_round}) {
    std::map<uint64_t, StatusCode> expected;
    for (const Sent& sent : *round) {
      client.SetGraph(sent.graph);
      auto id = client.SendTagged(sent.req, &error);
      ASSERT_TRUE(id.has_value()) << error;
      expected[*id] = sent.status;
      ++frames;
      if (sent.status == kOk) ++valid;
    }
    for (size_t i = 0; i < round->size(); ++i) {
      auto tagged = client.ReceiveTagged(&error);
      ASSERT_TRUE(tagged.has_value()) << error;
      EXPECT_EQ(tagged->response.status, expected[tagged->request_id])
          << tagged->response.error;
      if (tagged->response.status != StatusCode::kOk) ++failed;
    }
  }
  client.SetGraph("");
  ASSERT_TRUE(client.Ping(&error)) << error;
  ++frames;

  const StatsResponse stats = server_->Snapshot();
  EXPECT_EQ(stats.requests_served, frames);
  EXPECT_EQ(failed, frames - 1 - valid);
  EXPECT_EQ(stats.errors, failed);
  EXPECT_EQ(stats.queries_served, valid);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses +
                stats.cache_singleflight_waits,
            valid);
  EXPECT_EQ(stats.catalog_hits + stats.catalog_misses, valid);
  EXPECT_EQ(stats.catalog_misses, 1u);  // the one open of "snap"
  server_->Stop();
  std::remove(snap_path.c_str());
}

TEST_F(ServerTest, LargeFramesArePreparedAndServedByAWorker) {
  // A request frame over the loop's 1 KiB bound is decoded, parsed and
  // probed on a worker; its repeat is a cache hit served from there.
  QueryRequest req;
  const std::vector<std::string> distinct = {
      "(a:0)->(b:1), (a)->(c:2), (b)=>(c)", "(a:0)->(b:1)", "(x:1)=>(y:2)"};
  while (req.patterns.size() < 300) {
    req.patterns.push_back(distinct[req.patterns.size() % distinct.size()]);
  }
  ByteSink body;
  req.Serialize(body);
  ASSERT_GT(body.size(), 1024u);

  std::vector<uint64_t> expected;
  for (const std::string& p : distinct) {
    auto q = ParsePattern(p);
    ASSERT_TRUE(q.has_value());
    expected.push_back(engine_->Evaluate(*q, GmOptions{}).num_occurrences);
  }
  QueryClient client = Connect();
  std::string error;
  for (int round = 0; round < 2; ++round) {
    auto resp = client.Query(req, &error);
    ASSERT_TRUE(resp.has_value()) << error;
    ASSERT_EQ(resp->status, StatusCode::kOk) << resp->error;
    ASSERT_EQ(resp->results.size(), req.patterns.size());
    for (size_t i = 0; i < resp->results.size(); ++i) {
      EXPECT_EQ(resp->results[i].num_occurrences,
                expected[i % distinct.size()])
          << "round " << round << " pattern " << i;
    }
  }
  const StatsResponse stats = server_->Snapshot();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.catalog_hits, 2u);
  EXPECT_EQ(stats.queries_served, 2 * req.patterns.size());
}

TEST(ServerClient, MismatchedResponseIdFailsAndDisconnects) {
  // A peer that answers with another request's id: the blocking round trip
  // must not hand that answer to the caller, and the stream is dropped.
  const std::string path = UniqueSocketPath();
  int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  auto* bind_addr = reinterpret_cast<sockaddr*>(&addr);
  ASSERT_EQ(::bind(listener, bind_addr, sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  QueryClient client;
  std::string error;
  ASSERT_TRUE(client.ConnectUnix(path, &error)) << error;

  std::thread peer([listener] {
    int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    std::vector<uint8_t> payload;
    if (ReadFrame(fd, kDefaultMaxFrameBytes, &payload, nullptr) ==
        FrameReadStatus::kOk) {
      ByteSource src(payload.data(), payload.size());
      ByteSink reply;
      reply.WriteU64(ReadRequestHeader(src).request_id + 1);
      QueryResponse{}.Serialize(reply);
      WriteFrame(fd, reply, nullptr);
    }
    ::close(fd);
  });
  QueryRequest req;
  req.patterns = {"(a:0)->(b:1)"};
  auto resp = client.Query(req, &error);
  peer.join();
  ::close(listener);
  std::remove(path.c_str());
  EXPECT_FALSE(resp.has_value());
  EXPECT_NE(error.find("id mismatch"), std::string::npos) << error;
  EXPECT_FALSE(client.connected());
}

// ---------------------------------------------------------- delta refresh

TEST_F(ServerTest, RefreshWithoutDeltaConfiguredIsRejected) {
  QueryClient client = Connect();
  std::string error;
  auto resp = client.Refresh(&error);
  ASSERT_TRUE(resp.has_value()) << error;
  EXPECT_EQ(resp->status, StatusCode::kBadRequest);
  EXPECT_NE(resp->error.find("delta"), std::string::npos) << resp->error;
  // The connection (and server) keep serving.
  auto ok = client.Query(PaperRequest());
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, StatusCode::kOk);
}

/// A snapshot-backed server armed with a delta log: the live-refresh
/// deployment shape. The fixture owns the base snapshot, its checksum, and
/// a writer-side view of the log so tests can append and refresh at will.
class RefreshTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_graph_ = PaperExample::MakeGraph();
    snap_path_ = UniqueSocketPath() + ".snap";
    delta_path_ = UniqueSocketPath() + ".delta";
    std::string error;
    {
      GmEngine cold(base_graph_);
      ASSERT_TRUE(SaveEngineSnapshot(cold, snap_path_, &error)) << error;
    }
    auto info = InspectSnapshot(snap_path_, &error);
    ASSERT_TRUE(info.has_value()) << error;
    base_checksum_ = info->stored_checksum;
    // The daemon's `--snapshot S --delta D` shape: a registered default
    // tenant, opened before serving starts.
    auto catalog = std::make_shared<EngineCatalog>();
    EngineSource source;
    source.snapshot_path = snap_path_;
    source.delta_path = delta_path_;
    ASSERT_TRUE(catalog->Register("default", source, &error)) << error;
    ASSERT_NE(catalog->Acquire("", &error), nullptr) << error;

    config_.unix_path = UniqueSocketPath();
    // FEWER workers than the 4 steady clients of the under-load test, plus
    // the refresher: the event loop multiplexes connections over the pool,
    // so clients > workers must serve fine (the old thread-per-connection
    // core starved the refresher under this sizing).
    config_.num_workers = 2;
    server_ = std::make_unique<QueryServer>(catalog, config_);
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();  // SetUp may have ASSERTed out
    std::remove(snap_path_.c_str());
    std::remove(delta_path_.c_str());
  }

  void AppendBatch(
      const std::vector<std::pair<NodeId, NodeId>>& edges) {
    std::string error;
    auto writer = DeltaWriter::Open(delta_path_, base_checksum_,
                                    base_graph_.NumNodes(), &error);
    ASSERT_NE(writer, nullptr) << error;
    ASSERT_TRUE(writer->Append(edges, &error)) << error;
  }

  uint64_t ServedCount(QueryClient& client, const std::string& pattern) {
    QueryRequest req;
    req.patterns = {pattern};
    std::string error;
    auto resp = client.Query(req, &error);
    EXPECT_TRUE(resp.has_value()) << error;
    if (!resp.has_value()) return ~0ull;
    EXPECT_EQ(resp->status, StatusCode::kOk) << resp->error;
    return resp->results[0].num_occurrences;
  }

  /// Log position the default tenant serves (List reads it without
  /// touching the catalog's hit/LRU counters).
  uint64_t AppliedSeqno() const {
    return server_->catalog().List().front().applied_seqno;
  }

  Graph base_graph_;
  std::string snap_path_, delta_path_;
  uint64_t base_checksum_ = 0;
  ServerConfig config_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(RefreshTest, RefreshBeforeTheLogExistsIsACaughtUpNoOp) {
  // The log is created lazily by the first `delta append`; a refresh that
  // arrives first (a poller on a timer) is a healthy caught-up state, not
  // an error — status kOk, nothing applied, no errors counted. A
  // zero-length file (crashed first creation) is the same state.
  QueryClient client;
  std::string error;
  ASSERT_TRUE(client.ConnectUnix(config_.unix_path, &error)) << error;
  auto resp = client.Refresh(&error);
  ASSERT_TRUE(resp.has_value()) << error;
  EXPECT_EQ(resp->status, StatusCode::kOk) << resp->error;
  EXPECT_EQ(resp->records_applied, 0u);
  EXPECT_EQ(resp->num_edges, base_graph_.NumEdges());

  std::ofstream(delta_path_, std::ios::binary).close();  // 0-byte file
  auto resp2 = client.Refresh(&error);
  ASSERT_TRUE(resp2.has_value()) << error;
  EXPECT_EQ(resp2->status, StatusCode::kOk) << resp2->error;
  EXPECT_EQ(resp2->records_applied, 0u);

  EXPECT_EQ(server_->Snapshot().errors, 0u);
  EXPECT_EQ(server_->Snapshot().refreshes, 0u);
}

TEST_F(RefreshTest, RefreshMatchesColdRebuildOfBasePlusDelta) {
  const std::string pattern = "(a:0)->(b:1)";
  QueryClient client;
  std::string error;
  ASSERT_TRUE(client.ConnectUnix(config_.unix_path, &error)) << error;

  // Two batches, two refresh rounds — counts after each must equal a cold
  // rebuild of base + the records applied so far.
  const std::vector<std::pair<NodeId, NodeId>> batch1 = {{0, 3}, {0, 7}};
  const std::vector<std::pair<NodeId, NodeId>> batch2 = {{1, 4}, {2, 6}};
  AppendBatch(batch1);
  auto r1 = client.Refresh(&error);
  ASSERT_TRUE(r1.has_value()) << error;
  ASSERT_EQ(r1->status, StatusCode::kOk) << r1->error;
  EXPECT_EQ(r1->records_applied, 1u);
  EXPECT_EQ(AppliedSeqno(), 1u);
  {
    Graph merged = ApplyEdgesToGraph(base_graph_, batch1);
    GmEngine cold(merged);
    auto q = ParsePattern(pattern);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(ServedCount(client, pattern), cold.EvaluateCollect(*q).size());
    EXPECT_EQ(r1->num_edges, merged.NumEdges());
  }

  AppendBatch(batch2);
  auto r2 = client.Refresh(&error);
  ASSERT_TRUE(r2.has_value()) << error;
  ASSERT_EQ(r2->status, StatusCode::kOk) << r2->error;
  EXPECT_EQ(r2->records_applied, 1u);
  EXPECT_EQ(r2->last_seqno, 2u);
  {
    std::vector<std::pair<NodeId, NodeId>> all = batch1;
    all.insert(all.end(), batch2.begin(), batch2.end());
    Graph merged = ApplyEdgesToGraph(base_graph_, all);
    GmEngine cold(merged);
    auto q = ParsePattern(pattern);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(ServedCount(client, pattern), cold.EvaluateCollect(*q).size());
  }

  // Caught up: the third refresh is a no-op, not an error.
  auto r3 = client.Refresh(&error);
  ASSERT_TRUE(r3.has_value()) << error;
  EXPECT_EQ(r3->status, StatusCode::kOk);
  EXPECT_EQ(r3->records_applied, 0u);
  EXPECT_EQ(server_->Snapshot().refreshes, 2u);
}

TEST_F(RefreshTest, IdleWorkersHoldNoSupersededEngine) {
  // Workers pin a tenant's engine for one request and drop the pin before
  // the response is queued. So once a refresh has published a successor
  // and a query has been answered, nothing holds the old state: its last
  // reference is gone by the time the client reads the answer, with no
  // sleep or poll.
  std::string error;
  std::weak_ptr<const EngineState> old_state =
      server_->catalog().Acquire("", &error);
  ASSERT_FALSE(old_state.expired()) << error;

  const std::string pattern = "(a:0)->(b:1)";
  QueryClient client;
  ASSERT_TRUE(client.ConnectUnix(config_.unix_path, &error)) << error;
  const uint64_t before = ServedCount(client, pattern);

  AppendBatch({{0, 3}, {0, 7}});
  auto refreshed = client.Refresh(&error);
  ASSERT_TRUE(refreshed.has_value()) << error;
  ASSERT_EQ(refreshed->status, StatusCode::kOk) << refreshed->error;
  ASSERT_EQ(refreshed->records_applied, 1u);
  EXPECT_EQ(ServedCount(client, pattern), before + 1);  // the new 0->3

  EXPECT_TRUE(old_state.expired());
}

TEST_F(RefreshTest, LogBoundToDifferentBaseIsRejected) {
  std::string error;
  {
    auto writer = DeltaWriter::Open(delta_path_, base_checksum_ + 1,
                                    base_graph_.NumNodes(), &error);
    ASSERT_NE(writer, nullptr) << error;
    ASSERT_TRUE(writer->Append({{0, 3}}, &error)) << error;
  }
  QueryClient client;
  ASSERT_TRUE(client.ConnectUnix(config_.unix_path, &error)) << error;
  auto resp = client.Refresh(&error);
  ASSERT_TRUE(resp.has_value()) << error;
  EXPECT_EQ(resp->status, StatusCode::kBadRequest);
  EXPECT_NE(resp->error.find("different base"), std::string::npos)
      << resp->error;
  // Serving is unchanged (4 paper-example occurrences).
  QueryRequest req;
  req.patterns = {"(a:0)->(b:1), (a)->(c:2), (b)=>(c)"};
  auto q = client.Query(req, &error);
  ASSERT_TRUE(q.has_value()) << error;
  EXPECT_EQ(q->results[0].num_occurrences, 4u);
}

TEST_F(RefreshTest, RewrittenLogWithReusedSeqnosIsRejectedNotSkipped) {
  // After a refresh, replace the log with a different one against the same
  // base (seqno 1 reused with other edges). Resuming by seqno alone would
  // report "caught up" and serve a stale graph forever; the chain check
  // must reject instead.
  QueryClient client;
  std::string error;
  ASSERT_TRUE(client.ConnectUnix(config_.unix_path, &error)) << error;
  AppendBatch({{0, 3}});
  auto r1 = client.Refresh(&error);
  ASSERT_TRUE(r1.has_value()) << error;
  ASSERT_EQ(r1->status, StatusCode::kOk) << r1->error;

  std::remove(delta_path_.c_str());
  AppendBatch({{0, 7}});  // fresh log: seqno 1 again, different edges
  auto r2 = client.Refresh(&error);
  ASSERT_TRUE(r2.has_value()) << error;
  EXPECT_EQ(r2->status, StatusCode::kBadRequest);
  EXPECT_NE(r2->error.find("applied prefix"), std::string::npos)
      << r2->error;
  // Serving continues on the last good state.
  EXPECT_EQ(AppliedSeqno(), 1u);
}

TEST_F(RefreshTest, RefreshUnderConcurrentClientsDropsNothing) {
  // The RCU swap under fire: 4 clients hammer the same query while the
  // main thread appends records and refreshes twice. Every round trip must
  // succeed on its original connection, and every observed count must be
  // one of the legal states (before / after first / after second batch).
  // This is the primary TSAN target for the engine-swap path.
  const std::string pattern = "(a:0)->(b:1)";
  auto count_for = [&](const std::vector<std::pair<NodeId, NodeId>>& extra) {
    Graph merged = ApplyEdgesToGraph(base_graph_, extra);
    GmEngine cold(merged);
    auto q = ParsePattern(pattern);
    return static_cast<uint64_t>(cold.EvaluateCollect(*q).size());
  };
  const std::vector<std::pair<NodeId, NodeId>> batch1 = {{0, 3}};
  std::vector<std::pair<NodeId, NodeId>> both = batch1;
  both.emplace_back(0, 4);
  const uint64_t count0 = count_for({});
  const uint64_t count1 = count_for(batch1);
  const uint64_t count2 = count_for(both);

  constexpr int kClients = 4;
  constexpr int kRounds = 30;
  std::atomic<int> failures{0};
  std::atomic<int> bad_counts{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      QueryClient client;
      std::string error;
      if (!client.ConnectUnix(config_.unix_path, &error)) {
        ++failures;
        return;
      }
      while (!go.load()) std::this_thread::yield();
      QueryRequest req;
      req.patterns = {pattern};
      for (int r = 0; r < kRounds; ++r) {
        auto resp = client.Query(req, &error);
        if (!resp.has_value() || resp->status != StatusCode::kOk) {
          ++failures;
          return;
        }
        uint64_t n = resp->results[0].num_occurrences;
        if (n != count0 && n != count1 && n != count2) ++bad_counts;
      }
    });
  }

  go.store(true);
  QueryClient refresher;
  std::string error;
  ASSERT_TRUE(refresher.ConnectUnix(config_.unix_path, &error)) << error;
  AppendBatch(batch1);
  auto r1 = refresher.Refresh(&error);
  ASSERT_TRUE(r1.has_value()) << error;
  EXPECT_EQ(r1->status, StatusCode::kOk) << r1->error;
  AppendBatch({{0, 4}});
  auto r2 = refresher.Refresh(&error);
  ASSERT_TRUE(r2.has_value()) << error;
  EXPECT_EQ(r2->status, StatusCode::kOk) << r2->error;

  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(bad_counts.load(), 0);
  // Steady state: everyone sees base + both batches.
  QueryClient after;
  ASSERT_TRUE(after.ConnectUnix(config_.unix_path, &error)) << error;
  EXPECT_EQ(ServedCount(after, pattern), count2);
  EXPECT_EQ(AppliedSeqno(), 2u);
}

}  // namespace
}  // namespace rigpm
