// Delta-log maintenance tests (storage/delta_log.h replay, storage/lineage.h,
// server/catalog.h Compact/RunMaintenance): the randomized add/delete replay
// suite against an independent edge-set model — every entry from base + log
// to a served graph included — lineage head-pointer resolution and its
// crash window, compaction folding a log into a new snapshot generation,
// and the background maintenance pass: stat() polls, the refreshes they
// refuse, and policy-triggered auto-compaction.

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/gm_engine.h"
#include "graph/generators.h"
#include "query/pattern_parser.h"
#include "server/catalog.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/delta_log.h"
#include "storage/lineage.h"
#include "storage/snapshot.h"
#include "test_util.h"
#include "util/serde.h"

namespace rigpm {
namespace {

using namespace rigpm::server;

std::string UniquePath() {
  static std::atomic<int> counter{0};
  return (std::filesystem::temp_directory_path() /
          ("rigpm_maint_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++)))
      .string();
}

constexpr const char* kPattern = "(a:0)->(b:1), (a)->(c:2), (b)=>(c)";

uint64_t FileSize(const std::string& path) {
  struct stat st{};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return static_cast<uint64_t>(st.st_size);
}

bool Exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

std::vector<uint8_t> GraphBytes(const Graph& g) {
  ByteSink sink;
  g.Serialize(sink);
  return sink.data();
}

// ------------------------------------------ randomized differential suite

/// An independent model of a delta-logged graph: a plain edge set updated
/// op by op in batch order, turned into a graph by Graph::FromEdges alone,
/// so a defect in ApplyDeltaOps' normalization cannot hide in its own
/// oracle.
class EdgeSetModel {
 public:
  explicit EdgeSetModel(const Graph& base)
      : labels_(base.NumNodes()), node_(0, base.NumNodes() - 1) {
    for (NodeId v = 0; v < base.NumNodes(); ++v) {
      labels_[v] = base.Label(v);
      for (NodeId w : base.OutNeighbors(v)) edges_.emplace(v, w);
    }
  }

  /// Draws a batch and applies it to the model: random adds and deletes,
  /// then an add of a present edge, a delete of an absent one, a
  /// duplicated op, an add-then-delete of one edge and a delete-then-add
  /// of another.
  std::vector<DeltaOp> RandomBatch(std::mt19937& rng) {
    auto random_pair = [&] { return std::pair{node_(rng), node_(rng)}; };
    auto present_pair = [&] {
      return *std::next(edges_.begin(), rng() % edges_.size());
    };
    auto absent_pair = [&] {
      std::pair<NodeId, NodeId> e = random_pair();
      while (edges_.contains(e)) e = random_pair();
      return e;
    };
    auto op = [](std::pair<NodeId, NodeId> e, DeltaOpKind kind) {
      return DeltaOp{e.first, e.second, kind};
    };
    std::vector<DeltaOp> ops;
    for (int i = 1 + static_cast<int>(rng() % 8); i > 0; --i) {
      ops.push_back(rng() % 2 == 0 ? op(present_pair(), DeltaOpKind::kDelete)
                                   : op(random_pair(), DeltaOpKind::kAdd));
    }
    ops.push_back(op(present_pair(), DeltaOpKind::kAdd));
    ops.push_back(op(absent_pair(), DeltaOpKind::kDelete));
    ops.push_back(ops[rng() % ops.size()]);
    const std::pair<NodeId, NodeId> flip = random_pair();
    ops.push_back(op(flip, DeltaOpKind::kAdd));
    ops.push_back(op(flip, DeltaOpKind::kDelete));
    const std::pair<NodeId, NodeId> flop = present_pair();
    ops.push_back(op(flop, DeltaOpKind::kDelete));
    ops.push_back(op(flop, DeltaOpKind::kAdd));

    for (const DeltaOp& o : ops) {
      if (o.kind == DeltaOpKind::kAdd) {
        edges_.emplace(o.src, o.dst);
      } else {
        edges_.erase({o.src, o.dst});
      }
    }
    return ops;
  }

  Graph ToGraph() const {
    return Graph::FromEdges(labels_, {edges_.begin(), edges_.end()});
  }
  size_t NumEdges() const { return edges_.size(); }

 private:
  std::vector<LabelId> labels_;
  std::set<std::pair<NodeId, NodeId>> edges_;
  std::uniform_int_distribution<NodeId> node_;
};

Graph DiffBaseGraph() {
  return GeneratePowerLaw(
      {.num_nodes = 90, .num_edges = 300, .num_labels = 3, .seed = 17});
}

/// Replay against the edge-set model, under both IO modes — every reader
/// must rebuild the same graph whether the log is mapped or slurped.
class ReplayDiffTest : public ::testing::TestWithParam<SnapshotIoMode> {};

INSTANTIATE_TEST_SUITE_P(IoModes, ReplayDiffTest,
                         ::testing::Values(SnapshotIoMode::kMmap,
                                           SnapshotIoMode::kRead),
                         [](const auto& info) {
                           return info.param == SnapshotIoMode::kMmap
                                      ? "mmap"
                                      : "read";
                         });

TEST_P(ReplayDiffTest, RandomAddDeleteBatchesMatchEdgeSetModel) {
  const std::string log_path = UniquePath() + ".delta";
  const Graph base = DiffBaseGraph();
  EdgeSetModel model(base);
  auto q = ParsePattern(kPattern);
  ASSERT_TRUE(q.has_value());

  constexpr uint64_t kBaseChecksum = 0xfeedface12345678ull;
  std::string error;
  auto writer =
      DeltaWriter::Open(log_path, kBaseChecksum, base.NumNodes(), &error);
  ASSERT_NE(writer, nullptr) << error;

  std::mt19937 rng(20260807);
  Graph current = base;
  uint64_t answers_seen = 0;
  constexpr int kRounds = 12;
  for (int round = 0; round < kRounds; ++round) {
    const std::vector<DeltaOp> ops = model.RandomBatch(rng);
    ASSERT_TRUE(writer->AppendOps(ops, &error)) << error;

    Graph next = ApplyDeltaOps(current, ops);
    const Graph model_graph = model.ToGraph();
    EXPECT_EQ(GraphBytes(next), GraphBytes(model_graph)) << "round " << round;
    EXPECT_EQ(next.NumEdges(), model.NumEdges()) << "round " << round;
    std::vector<Occurrence> tuples = GmEngine(next).EvaluateCollect(*q);
    std::set<Occurrence> answer(tuples.begin(), tuples.end());
    EXPECT_EQ(answer.size(), tuples.size()) << "round " << round;
    EXPECT_EQ(answer, ::rigpm::testing::BruteForceAnswer(model_graph, *q))
        << "round " << round;
    answers_seen += answer.size();
    current = std::move(next);
  }
  EXPECT_GT(answers_seen, 0u) << "the query never matched; nothing compared";
  writer.reset();

  // Replaying the raw log over the base lands on the model's graph too.
  DeltaRead read =
      ReadDeltaSince(log_path, GetParam(), kBaseChecksum, base.NumNodes());
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_FALSE(read.torn_tail);
  EXPECT_EQ(read.stats.records_applied, static_cast<uint64_t>(kRounds));
  EXPECT_GT(read.stats.delete_ops, 0u);
  EXPECT_EQ(GraphBytes(ApplyDeltaOps(base, read.ops)),
            GraphBytes(model.ToGraph()));
  std::remove(log_path.c_str());
}

/// What one entry from storage to a served graph produced.
struct Served {
  std::vector<uint8_t> graph_bytes;
  std::set<Occurrence> answer;
  uint64_t applied_seqno = 0;
  uint64_t applied_chain = 0;
  uint64_t applied_end_offset = 0;
};

Served ServedBy(const GmEngine& engine, const PatternQuery& q) {
  Served served;
  served.graph_bytes = GraphBytes(engine.graph());
  std::vector<Occurrence> tuples = engine.EvaluateCollect(q);
  served.answer = {tuples.begin(), tuples.end()};
  return served;
}

Served ServedBy(const EngineState& state, const PatternQuery& q) {
  Served served = ServedBy(*state.engine, q);
  served.applied_seqno = state.applied_seqno;
  served.applied_chain = state.applied_chain;
  served.applied_end_offset = state.applied_end_offset;
  return served;
}

TEST_P(ReplayDiffTest, EveryEntryServesTheModelFromOneResumePoint) {
  // Six entries turn base + log into a served graph: the LoadEngineSnapshot
  // overlay, a cold Acquire, a Refresh of a cold tenant, a Refresh of a
  // resident one, a maintenance pass and a compaction. Over random
  // add/delete logs, some ending in a torn append, each must serve the
  // model's graph and answers, and all but the compaction (which starts a
  // fresh log) must publish the same resume point.
  const SnapshotIoMode mode = GetParam();
  const Graph base = DiffBaseGraph();
  auto q = ParsePattern(kPattern);
  ASSERT_TRUE(q.has_value());
  std::mt19937 rng(20261018);
  constexpr int kTrials = 6;
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::string snap = UniquePath() + ".snap";
    const std::string delta = UniquePath() + ".delta";
    std::string error;
    {
      GmEngine cold(base);
      ASSERT_TRUE(SaveEngineSnapshot(cold, snap, &error)) << error;
    }
    auto info = InspectSnapshot(snap, &error);
    ASSERT_TRUE(info.has_value()) << error;
    EngineSource source;
    source.snapshot_path = snap;
    source.delta_path = delta;
    source.io_mode = mode;
    source.delta_io = mode;

    // Resident before the log exists.
    EngineCatalog resident;
    EngineCatalog maintained;
    for (EngineCatalog* catalog : {&resident, &maintained}) {
      ASSERT_TRUE(catalog->Register("g", source, &error)) << error;
      ASSERT_NE(catalog->Acquire("g", &error), nullptr) << error;
    }

    EdgeSetModel model(base);
    const uint64_t records = rng() % 6;
    const bool torn = trial % 2 == 1;
    auto writer = DeltaWriter::Open(delta, info->stored_checksum,
                                    base.NumNodes(), &error);
    ASSERT_NE(writer, nullptr) << error;
    for (uint64_t r = 0; r < records; ++r) {
      ASSERT_TRUE(writer->AppendOps(model.RandomBatch(rng), &error)) << error;
    }
    const uint64_t valid_end = FileSize(delta);
    if (torn) {
      // A crashed append: a strict prefix of one more record.
      EdgeSetModel discarded = model;
      ASSERT_TRUE(writer->AppendOps(discarded.RandomBatch(rng), &error))
          << error;
      const uint64_t full_end = FileSize(delta);
      const uint64_t cut = valid_end + 1 + rng() % (full_end - valid_end - 1);
      ASSERT_EQ(::truncate(delta.c_str(), static_cast<off_t>(cut)), 0);
    }
    writer.reset();
    const Graph model_graph = model.ToGraph();
    Served want;
    want.graph_bytes = GraphBytes(model_graph);
    want.answer = ::rigpm::testing::BruteForceAnswer(model_graph, *q);

    std::vector<std::pair<std::string, Served>> entries;
    {
      auto warm = LoadEngineSnapshot(
          snap, {.io_mode = mode, .delta_path = delta, .delta_io = mode},
          &error);
      ASSERT_TRUE(warm.has_value()) << error;
      Served served = ServedBy(*warm->engine, *q);
      served.applied_seqno = warm->applied_seqno;
      served.applied_chain = warm->applied_chain;
      served.applied_end_offset = warm->applied_end_offset;
      entries.emplace_back("LoadEngineSnapshot", std::move(served));
    }
    {
      EngineCatalog cold;
      ASSERT_TRUE(cold.Register("g", source, &error)) << error;
      auto state = cold.Acquire("g", &error);
      ASSERT_NE(state, nullptr) << error;
      entries.emplace_back("cold Acquire", ServedBy(*state, *q));
      // An open replays deletes; only a resident tenant's refresh counts.
      EXPECT_EQ(cold.maintenance_stats().deletes_applied, 0u);
    }
    {
      EngineCatalog cold;
      ASSERT_TRUE(cold.Register("g", source, &error)) << error;
      CatalogRefreshResult r = cold.Refresh("g");
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_EQ(r.records_applied, records);
      EXPECT_EQ(r.log_truncated, torn);
      auto state = cold.Acquire("g", &error);
      ASSERT_NE(state, nullptr) << error;
      entries.emplace_back("cold Refresh", ServedBy(*state, *q));
      EXPECT_EQ(cold.maintenance_stats().deletes_applied, 0u);
    }
    {
      CatalogRefreshResult r = resident.Refresh("g");
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_EQ(r.records_applied, records);
      auto state = resident.Acquire("g", &error);
      ASSERT_NE(state, nullptr) << error;
      entries.emplace_back("resident Refresh", ServedBy(*state, *q));
      // Every random batch carries delete ops.
      EXPECT_EQ(resident.maintenance_stats().deletes_applied > 0, records > 0);
    }
    {
      EXPECT_EQ(maintained.RunMaintenance(), records > 0 ? 1u : 0u);
      auto state = maintained.Acquire("g", &error);
      ASSERT_NE(state, nullptr) << error;
      entries.emplace_back("RunMaintenance", ServedBy(*state, *q));
      EXPECT_EQ(maintained.maintenance_stats().deletes_applied,
                resident.maintenance_stats().deletes_applied);
    }
    for (const auto& [name, served] : entries) {
      SCOPED_TRACE(name);
      EXPECT_EQ(served.graph_bytes, want.graph_bytes);
      EXPECT_EQ(served.answer, want.answer);
      EXPECT_EQ(served.applied_seqno, records);
      EXPECT_EQ(served.applied_chain, entries[0].second.applied_chain);
      EXPECT_EQ(served.applied_end_offset, valid_end);
    }
    EXPECT_EQ(entries[0].second.applied_chain != 0, records > 0);

    {
      EngineCatalog compacting;
      ASSERT_TRUE(compacting.Register("g", source, &error)) << error;
      CatalogCompactionResult c = compacting.Compact("g");
      ASSERT_TRUE(c.ok) << c.error;
      ASSERT_FALSE(c.skipped);
      auto state = compacting.Acquire("g", &error);
      ASSERT_NE(state, nullptr) << error;
      Served served = ServedBy(*state, *q);
      EXPECT_EQ(served.graph_bytes, want.graph_bytes);
      EXPECT_EQ(served.answer, want.answer);
      EXPECT_EQ(served.applied_seqno, 0u);
      EXPECT_EQ(served.applied_end_offset, kDeltaFileHeaderBytes);
      // The new generation alone serves the same graph.
      EngineCatalog reopened;
      ASSERT_TRUE(reopened.Register("g", source, &error)) << error;
      auto again = reopened.Acquire("g", &error);
      ASSERT_NE(again, nullptr) << error;
      EXPECT_EQ(GraphBytes(again->engine->graph()), want.graph_bytes);
      std::remove(c.snapshot_path.c_str());
      std::remove(c.delta_path.c_str());
    }
    std::remove(LineageHeadPath(snap).c_str());
    std::remove(snap.c_str());
    std::remove(delta.c_str());
  }
}

// ------------------------------------------------------- lineage pointers

TEST(Lineage, MissingHeadResolvesToConfiguredPathsAsGenerationZero) {
  const std::string snap = UniquePath() + ".snap";
  Lineage lineage;
  std::string error;
  ASSERT_TRUE(ResolveLineage(snap, snap + ".delta", &lineage, &error))
      << error;
  EXPECT_EQ(lineage.generation, 0u);
  EXPECT_EQ(lineage.snapshot_path, snap);
  EXPECT_EQ(lineage.delta_path, snap + ".delta");
}

TEST(Lineage, PublishThenResolveRoundTripsAndMalformedHeadIsAnError) {
  const std::string snap = UniquePath() + ".snap";
  const std::string delta = UniquePath() + ".delta";
  Lineage next;
  next.generation = 3;
  next.snapshot_path = GenerationPath(snap, 3);
  next.delta_path = GenerationPath(delta, 3);
  std::string error;
  ASSERT_TRUE(PublishLineage(snap, next, &error)) << error;

  Lineage got;
  ASSERT_TRUE(ResolveLineage(snap, delta, &got, &error)) << error;
  EXPECT_EQ(got.generation, 3u);
  EXPECT_EQ(got.snapshot_path, next.snapshot_path);
  EXPECT_EQ(got.delta_path, next.delta_path);

  // A present-but-garbage head must refuse, not guess a generation.
  std::ofstream(LineageHeadPath(snap), std::ios::trunc) << "not a head\n";
  EXPECT_FALSE(ResolveLineage(snap, delta, &got, &error));
  EXPECT_FALSE(error.empty());
  std::remove(LineageHeadPath(snap).c_str());
}

// ----------------------------------------- catalog compaction/maintenance

/// One snapshot+delta tenant in a catalog, with append helpers that follow
/// the lineage head the way `rigpm_cli delta append` does.
class MaintenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = GeneratePowerLaw(
        {.num_nodes = 80, .num_edges = 260, .num_labels = 3, .seed = 23});
    snap_path_ = UniquePath() + ".snap";
    delta_path_ = UniquePath() + ".delta";
    std::string error;
    {
      GmEngine cold(graph_);
      ASSERT_TRUE(SaveEngineSnapshot(cold, snap_path_, &error)) << error;
    }
    auto info = InspectSnapshot(snap_path_, &error);
    ASSERT_TRUE(info.has_value()) << error;
    checksum_ = info->stored_checksum;
    query_ = *ParsePattern(kPattern);
  }

  void TearDown() override {
    // Sweep every generation this test may have produced.
    for (uint64_t g = 1; g <= 4; ++g) {
      std::remove(GenerationPath(snap_path_, g).c_str());
      std::remove(GenerationPath(delta_path_, g).c_str());
    }
    std::remove(LineageHeadPath(snap_path_).c_str());
    std::remove(snap_path_.c_str());
    std::remove(delta_path_.c_str());
  }

  EngineSource Source() const {
    EngineSource source;
    source.snapshot_path = snap_path_;
    source.delta_path = delta_path_;
    return source;
  }

  /// Appends one op record to the CURRENT generation's log (head-resolved,
  /// base checksum read from the current snapshot) and tracks the ops for
  /// the cold-rebuild oracle.
  void AppendOps(const std::vector<DeltaOp>& ops) {
    Lineage lineage;
    std::string error;
    ASSERT_TRUE(ResolveLineage(snap_path_, delta_path_, &lineage, &error))
        << error;
    auto info = InspectSnapshot(lineage.snapshot_path, &error);
    ASSERT_TRUE(info.has_value()) << error;
    auto writer = DeltaWriter::Open(lineage.delta_path,
                                    info->stored_checksum,
                                    graph_.NumNodes(), &error);
    ASSERT_NE(writer, nullptr) << error;
    ASSERT_TRUE(writer->AppendOps(ops, &error)) << error;
    all_ops_.insert(all_ops_.end(), ops.begin(), ops.end());
  }

  /// AppendOps, then flips one byte of the new record's edge list (past its
  /// 32-byte record header): full-size bytes that fail their checksum.
  void AppendCorruptRecord(const std::vector<DeltaOp>& ops) {
    const uint64_t corrupt_at = FileSize(delta_path_) + 32;
    AppendOps(ops);
    std::fstream f(delta_path_,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(corrupt_at));
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(corrupt_at));
    f.write(&b, 1);
  }

  /// A delete of node u's first outgoing edge, or a throwaway add when u
  /// happens to have none in the generated graph.
  DeltaOp FirstDeleteOrAdd(NodeId u) const {
    auto nbrs = graph_.OutNeighbors(u);
    if (nbrs.empty()) return {u, 60, DeltaOpKind::kAdd};
    return {u, nbrs[0], DeltaOpKind::kDelete};
  }

  /// The from-scratch oracle: base graph + every op ever appended.
  uint64_t OracleCount() const {
    Graph rebuilt = ApplyDeltaOps(graph_, all_ops_);
    return GmEngine(rebuilt).EvaluateCollect(query_).size();
  }

  uint64_t ServedCount(EngineCatalog& catalog) {
    std::string error;
    auto state = catalog.Acquire("g", &error);
    EXPECT_NE(state, nullptr) << error;
    if (state == nullptr) return ~0ull;
    return state->engine->EvaluateCollect(query_).size();
  }

  Graph graph_;
  PatternQuery query_;
  std::string snap_path_, delta_path_;
  uint64_t checksum_ = 0;
  std::vector<DeltaOp> all_ops_;
};

TEST_F(MaintenanceTest, CompactFoldsLogIntoNewGenerationAndRepointsHead) {
  EngineCatalog catalog;
  ASSERT_TRUE(catalog.Register("g", Source()));
  AppendOps({{0, 40, DeltaOpKind::kAdd}, {1, 41, DeltaOpKind::kAdd}});
  AppendOps({FirstDeleteOrAdd(0)});
  const uint64_t want = OracleCount();
  ASSERT_EQ(ServedCount(catalog), want);
  const uint64_t old_log_bytes = FileSize(delta_path_);

  CatalogCompactionResult c = catalog.Compact("g");
  ASSERT_TRUE(c.ok) << c.error;
  ASSERT_FALSE(c.skipped);
  EXPECT_EQ(c.generation, 1u);
  EXPECT_EQ(c.snapshot_path, GenerationPath(snap_path_, 1));
  EXPECT_EQ(c.delta_path, GenerationPath(delta_path_, 1));
  EXPECT_GT(c.bytes_reclaimed, 0u);

  // The head now points at generation 1; the old log is gone; the new log
  // is empty (header only) — the "log shrinks" contract.
  Lineage lineage;
  std::string error;
  ASSERT_TRUE(ResolveLineage(snap_path_, delta_path_, &lineage, &error))
      << error;
  EXPECT_EQ(lineage.generation, 1u);
  EXPECT_TRUE(Exists(c.snapshot_path));
  EXPECT_FALSE(Exists(delta_path_));
  EXPECT_EQ(FileSize(c.delta_path), kDeltaFileHeaderBytes);
  EXPECT_LT(FileSize(c.delta_path), old_log_bytes);
  // The configured gen-0 snapshot is never unlinked (it may be the only
  // copy an operator configured; only gen >= 1 intermediates are swept).
  EXPECT_TRUE(Exists(snap_path_));

  // Serving is unchanged by the storage swap...
  EXPECT_EQ(ServedCount(catalog), want);
  MaintenanceStats ms = catalog.maintenance_stats();
  EXPECT_EQ(ms.bytes_reclaimed, c.bytes_reclaimed);

  // ...and the tenant keeps working END TO END on the new generation:
  // appends follow the head into the gen-1 log, refresh applies them, and
  // a second compaction advances to generation 2.
  AppendOps({{2, 42, DeltaOpKind::kAdd}});
  CatalogRefreshResult r = catalog.Refresh("g");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.records_applied, 1u);
  EXPECT_EQ(ServedCount(catalog), OracleCount());

  CatalogCompactionResult c2 = catalog.Compact("g");
  ASSERT_TRUE(c2.ok) << c2.error;
  EXPECT_EQ(c2.generation, 2u);
  EXPECT_FALSE(Exists(GenerationPath(delta_path_, 1)));
  EXPECT_FALSE(Exists(GenerationPath(snap_path_, 1)));
  EXPECT_EQ(ServedCount(catalog), OracleCount());
}

TEST_F(MaintenanceTest, CompactCountsMatchColdRebuildAfterDeletes) {
  // Deletions survive the fold: compact a log whose net effect removes
  // edges, then reopen the tenant COLD from the new generation only.
  EngineCatalog catalog;
  ASSERT_TRUE(catalog.Register("g", Source()));
  ASSERT_EQ(ServedCount(catalog), OracleCount());  // resident, empty log
  std::vector<DeltaOp> ops;
  for (NodeId u = 0; u < 10; ++u) {
    for (NodeId v : graph_.OutNeighbors(u)) {
      ops.push_back({u, v, DeltaOpKind::kDelete});
    }
  }
  ASSERT_FALSE(ops.empty());
  ops.push_back({0, 50, DeltaOpKind::kAdd});
  AppendOps(ops);

  // Compact's drain step IS a refresh — it applies the deletes (counted)
  // before folding them into the new base.
  CatalogCompactionResult c = catalog.Compact("g");
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_GT(catalog.maintenance_stats().deletes_applied, 0u);
  EXPECT_EQ(ServedCount(catalog), OracleCount());

  // A second catalog resolves the head fresh — everything it knows comes
  // from the compacted generation's files.
  EngineCatalog cold;
  ASSERT_TRUE(cold.Register("g", Source()));
  EXPECT_EQ(ServedCount(cold), OracleCount());
}

TEST_F(MaintenanceTest, CompactSkipsWhileAnExternalAppenderHoldsTheLog) {
  EngineCatalog catalog;
  ASSERT_TRUE(catalog.Register("g", Source()));
  AppendOps({{0, 40, DeltaOpKind::kAdd}});
  ASSERT_EQ(ServedCount(catalog), OracleCount());

  std::string error;
  auto appender =
      DeltaWriter::Open(delta_path_, checksum_, graph_.NumNodes(), &error);
  ASSERT_NE(appender, nullptr) << error;

  CatalogCompactionResult c = catalog.Compact("g");
  EXPECT_TRUE(c.ok) << c.error;
  EXPECT_TRUE(c.skipped);
  EXPECT_TRUE(Exists(delta_path_));
  EXPECT_FALSE(Exists(LineageHeadPath(snap_path_)));
  EXPECT_EQ(catalog.maintenance_stats().auto_compactions, 0u);

  // Released lock -> the next attempt folds normally.
  appender.reset();
  c = catalog.Compact("g");
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_FALSE(c.skipped);
  EXPECT_EQ(ServedCount(catalog), OracleCount());
}

TEST_F(MaintenanceTest, CrashBeforeHeadPublishLeavesOldLineageServing) {
  // The compaction crash window: generation files written, head NOT yet
  // published. The old lineage must keep serving exactly, and the next
  // compaction sweeps the orphans and takes the generation over.
  EngineCatalog catalog;
  ASSERT_TRUE(catalog.Register("g", Source()));
  AppendOps({{0, 40, DeltaOpKind::kAdd}, {1, 41, DeltaOpKind::kAdd}});
  const uint64_t want = OracleCount();

  // Simulate the crash: plausible-but-uncommitted gen-1 orphans.
  std::filesystem::copy_file(snap_path_, GenerationPath(snap_path_, 1));
  std::ofstream(GenerationPath(delta_path_, 1), std::ios::binary)
      << "orphan bytes from a dead compactor";
  ASSERT_FALSE(Exists(LineageHeadPath(snap_path_)));

  // Resolution ignores orphans (only the head commits a generation), and
  // serving still reflects base + the full log.
  Lineage lineage;
  std::string error;
  ASSERT_TRUE(ResolveLineage(snap_path_, delta_path_, &lineage, &error))
      << error;
  EXPECT_EQ(lineage.generation, 0u);
  EXPECT_EQ(ServedCount(catalog), want);

  // The next compaction rewrites generation 1 from scratch and commits it.
  CatalogCompactionResult c = catalog.Compact("g");
  ASSERT_TRUE(c.ok) << c.error;
  ASSERT_FALSE(c.skipped);
  EXPECT_EQ(c.generation, 1u);
  ASSERT_TRUE(ResolveLineage(snap_path_, delta_path_, &lineage, &error))
      << error;
  EXPECT_EQ(lineage.generation, 1u);
  EXPECT_EQ(ServedCount(catalog), want);
  EXPECT_EQ(FileSize(c.delta_path), kDeltaFileHeaderBytes);
}

TEST_F(MaintenanceTest, AcquireDuringCompactionNeverFails) {
  // A reader acquires the tenant and evaluates the pattern in a loop while
  // the main thread runs append+compact cycles (drain refresh, snapshot
  // re-dump, head publish, RCU re-point). Every Acquire must succeed, and
  // every count must be the cold-rebuild count of some generation.
  constexpr int kCycles = 4;  // TearDown sweeps generations 1 to 4
  std::vector<std::vector<DeltaOp>> batches;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    batches.push_back({{static_cast<NodeId>(cycle), 40, DeltaOpKind::kAdd},
                       FirstDeleteOrAdd(static_cast<NodeId>(cycle + 5))});
  }
  std::set<uint64_t> generation_counts = {OracleCount()};
  {
    std::vector<DeltaOp> prefix;
    for (const std::vector<DeltaOp>& batch : batches) {
      prefix.insert(prefix.end(), batch.begin(), batch.end());
      Graph rebuilt = ApplyDeltaOps(graph_, prefix);
      generation_counts.insert(
          GmEngine(rebuilt).EvaluateCollect(query_).size());
    }
  }

  EngineCatalog catalog;
  ASSERT_TRUE(catalog.Register("g", Source()));
  ASSERT_EQ(ServedCount(catalog), OracleCount());  // make it resident

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> evaluations{0};
  std::atomic<uint64_t> failed_acquires{0};
  std::atomic<uint64_t> wrong_counts{0};
  std::string first_error;  // written by the reader, read after join
  std::thread reader([&] {
    while (!stop.load()) {
      std::string error;
      auto state = catalog.Acquire("g", &error);
      if (state == nullptr) {
        if (failed_acquires.fetch_add(1) == 0) first_error = error;
      } else if (generation_counts.count(
                     state->engine->EvaluateCollect(query_).size()) == 0) {
        wrong_counts.fetch_add(1);
      }
      evaluations.fetch_add(1);
    }
  });
  // Each cycle starts and ends with the reader a few evaluations further,
  // so it runs across every append, compaction and swap.
  auto let_reader_run = [&] {
    const uint64_t until = evaluations.load() + 3;
    while (evaluations.load() < until) std::this_thread::yield();
  };

  for (int cycle = 0; cycle < kCycles; ++cycle) {
    let_reader_run();
    AppendOps(batches[cycle]);
    CatalogCompactionResult c = catalog.Compact("g");
    EXPECT_TRUE(c.ok) << c.error;
    EXPECT_FALSE(c.skipped);
    EXPECT_EQ(c.generation, static_cast<uint64_t>(cycle + 1));
  }
  let_reader_run();
  stop.store(true);
  reader.join();

  EXPECT_EQ(failed_acquires.load(), 0u) << first_error;
  EXPECT_EQ(wrong_counts.load(), 0u);
  EXPECT_GE(evaluations.load(), uint64_t{3 * (kCycles + 1)});
  EXPECT_EQ(ServedCount(catalog), OracleCount());
}

TEST_F(MaintenanceTest, RunMaintenanceAppliesNewRecordsWithoutClientRefresh) {
  EngineCatalog catalog;
  catalog.SetMaintenancePolicy({.auto_compact_ratio = 0.0, .interval_ms = 1});
  ASSERT_TRUE(catalog.Register("g", Source()));
  ASSERT_EQ(ServedCount(catalog), OracleCount());  // make it resident

  // Nothing new: the pass touches nothing and counts nothing.
  EXPECT_EQ(catalog.RunMaintenance(), 0u);
  EXPECT_EQ(catalog.maintenance_stats().auto_refreshes, 0u);

  AppendOps({{0, 40, DeltaOpKind::kAdd}, FirstDeleteOrAdd(5)});
  EXPECT_EQ(catalog.RunMaintenance(), 1u);
  MaintenanceStats ms = catalog.maintenance_stats();
  EXPECT_EQ(ms.auto_refreshes, 1u);
  EXPECT_EQ(ms.auto_compactions, 0u);
  EXPECT_EQ(ServedCount(catalog), OracleCount());

  // The published state records the O(1) resume point: the next pass sees
  // size == applied_end_offset and does not act.
  std::string error;
  auto state = catalog.Acquire("g", &error);
  ASSERT_NE(state, nullptr) << error;
  EXPECT_EQ(state->applied_end_offset, FileSize(delta_path_));
  EXPECT_EQ(catalog.RunMaintenance(), 0u);
  EXPECT_EQ(catalog.maintenance_stats().auto_refreshes, 1u);
}

TEST_F(MaintenanceTest, RunMaintenanceRefusesALogRewrittenWithReusedSeqnos) {
  // The log is replaced by another one against the same base: seqnos 1..3
  // again, other edges, and longer than the applied prefix was. Resuming
  // by seqno would apply record 3 on top of the wrong 1 and 2.
  EngineCatalog catalog;
  ASSERT_TRUE(catalog.Register("g", Source()));
  AppendOps({{0, 40, DeltaOpKind::kAdd}});
  AppendOps({FirstDeleteOrAdd(5)});
  const uint64_t want = OracleCount();
  ASSERT_EQ(ServedCount(catalog), want);  // resident, both records applied
  std::string error;
  auto before = catalog.Acquire("g", &error);
  ASSERT_NE(before, nullptr) << error;
  const uint64_t applied_end = FileSize(delta_path_);
  ASSERT_EQ(before->applied_end_offset, applied_end);

  std::remove(delta_path_.c_str());
  {
    auto writer = DeltaWriter::Open(delta_path_, checksum_,
                                    graph_.NumNodes(), &error);
    ASSERT_NE(writer, nullptr) << error;
    for (NodeId u : {1u, 2u, 3u}) {
      ASSERT_TRUE(writer->AppendOps(
          std::vector<DeltaOp>{{u, 41, DeltaOpKind::kAdd}}, &error))
          << error;
    }
  }
  ASSERT_GT(FileSize(delta_path_), applied_end);

  EXPECT_EQ(catalog.RunMaintenance(), 0u);
  EXPECT_EQ(catalog.maintenance_stats().auto_refreshes, 0u);
  EXPECT_EQ(catalog.Acquire("g", &error), before);
  EXPECT_EQ(ServedCount(catalog), want);
}

TEST_F(MaintenanceTest, RunMaintenanceRefusesACorruptNewRecord) {
  EngineCatalog catalog;
  ASSERT_TRUE(catalog.Register("g", Source()));
  AppendOps({{0, 40, DeltaOpKind::kAdd}});
  const uint64_t want = OracleCount();
  ASSERT_EQ(ServedCount(catalog), want);  // resident, record 1 applied
  std::string error;
  auto before = catalog.Acquire("g", &error);
  ASSERT_NE(before, nullptr) << error;

  // Record 2 arrives intact, record 3 corrupt. Applying record 2 alone
  // would serve a graph that silently lacks acknowledged record 3.
  AppendOps({{1, 41, DeltaOpKind::kAdd}});
  AppendCorruptRecord({{2, 42, DeltaOpKind::kAdd}, {3, 43, DeltaOpKind::kAdd}});

  EXPECT_EQ(catalog.RunMaintenance(), 0u);
  EXPECT_EQ(catalog.maintenance_stats().auto_refreshes, 0u);
  EXPECT_EQ(catalog.maintenance_stats().failures, 1u);
  EXPECT_EQ(catalog.Acquire("g", &error), before);
  EXPECT_EQ(ServedCount(catalog), want);

  // The unchanged log is not read again, so the refusal is not counted
  // again. Bytes appended to it make the next pass read it, and refuse it.
  EXPECT_EQ(catalog.RunMaintenance(), 0u);
  EXPECT_EQ(catalog.maintenance_stats().failures, 1u);
  {
    std::ofstream f(delta_path_, std::ios::binary | std::ios::app);
    f.write("torn", 4);
  }
  EXPECT_EQ(catalog.RunMaintenance(), 0u);
  EXPECT_EQ(catalog.maintenance_stats().failures, 2u);
  EXPECT_EQ(catalog.maintenance_stats().auto_refreshes, 0u);
  EXPECT_EQ(catalog.Acquire("g", &error), before);
}

TEST_F(MaintenanceTest, RunMaintenanceDoesNotCompactARefusedLog) {
  // With compaction armed, a refused log is not drained either: the drain
  // would meet the same refusal on every pass.
  EngineCatalog catalog;
  catalog.SetMaintenancePolicy(
      {.auto_compact_ratio = 0.0001, .interval_ms = 1});
  ASSERT_TRUE(catalog.Register("g", Source()));
  AppendOps({{0, 40, DeltaOpKind::kAdd}});
  const uint64_t want = OracleCount();
  ASSERT_EQ(ServedCount(catalog), want);  // resident, record 1 applied
  AppendCorruptRecord({{1, 41, DeltaOpKind::kAdd}});

  EXPECT_EQ(catalog.RunMaintenance(), 0u);
  EXPECT_EQ(catalog.RunMaintenance(), 0u);
  MaintenanceStats ms = catalog.maintenance_stats();
  EXPECT_EQ(ms.failures, 1u);
  EXPECT_EQ(ms.auto_compactions, 0u);
  Lineage lineage;
  std::string error;
  ASSERT_TRUE(ResolveLineage(snap_path_, delta_path_, &lineage, &error))
      << error;
  EXPECT_EQ(lineage.generation, 0u);
  EXPECT_EQ(ServedCount(catalog), want);
}

TEST_F(MaintenanceTest, RunMaintenanceAutoCompactsWhenTheRatioTrips) {
  EngineCatalog catalog;
  // Any nonempty log exceeds this fraction of the base snapshot.
  catalog.SetMaintenancePolicy(
      {.auto_compact_ratio = 0.0001, .interval_ms = 1});
  ASSERT_TRUE(catalog.Register("g", Source()));
  ASSERT_EQ(ServedCount(catalog), OracleCount());

  AppendOps({{0, 40, DeltaOpKind::kAdd}});
  AppendOps({{1, 41, DeltaOpKind::kAdd}});
  EXPECT_GE(catalog.RunMaintenance(), 1u);

  MaintenanceStats ms = catalog.maintenance_stats();
  EXPECT_EQ(ms.auto_refreshes, 1u);
  EXPECT_EQ(ms.auto_compactions, 1u);
  EXPECT_GT(ms.bytes_reclaimed, 0u);
  Lineage lineage;
  std::string error;
  ASSERT_TRUE(ResolveLineage(snap_path_, delta_path_, &lineage, &error))
      << error;
  EXPECT_EQ(lineage.generation, 1u);
  EXPECT_EQ(ServedCount(catalog), OracleCount());
  EXPECT_EQ(FileSize(lineage.delta_path), kDeltaFileHeaderBytes);
}

TEST_F(MaintenanceTest, MaintenanceThreadRefreshesAndReportsOverTheWire) {
  // End to end through the daemon: a server with a maintenance thread
  // picks up externally appended records with no client kRefresh, and the
  // stats tail reports the maintenance counters over the wire.
  auto catalog = std::make_shared<EngineCatalog>();
  ASSERT_TRUE(catalog->Register("g", Source()));
  ServerConfig config;
  config.unix_path = UniquePath() + ".sock";
  config.num_workers = 2;
  config.maintenance_interval_ms = 10;
  auto server = std::make_unique<QueryServer>(catalog, config);
  std::string error;
  ASSERT_TRUE(server->Start(&error)) << error;

  QueryClient client;
  ASSERT_TRUE(client.ConnectUnix(config.unix_path, &error)) << error;
  client.SetGraph("g");
  QueryRequest req;
  req.patterns = {kPattern};
  auto resp = client.Query(req, &error);
  ASSERT_TRUE(resp.has_value()) << error;
  ASSERT_EQ(resp->status, StatusCode::kOk) << resp->error;
  EXPECT_EQ(resp->results[0].num_occurrences, OracleCount());

  AppendOps({{0, 40, DeltaOpKind::kAdd}, {1, 41, DeltaOpKind::kAdd}});
  const uint64_t want = OracleCount();

  // The thread polls every 10ms; give it a generous deadline. The stats
  // counter is the signal records were applied (the appended edges may or
  // may not change this particular pattern's count).
  uint64_t auto_refreshes = 0;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    auto stats = client.Stats(&error);
    ASSERT_TRUE(stats.has_value()) << error;
    auto_refreshes = stats->auto_refreshes;
    if (auto_refreshes >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(auto_refreshes, 1u);

  auto r = client.Query(req, &error);
  ASSERT_TRUE(r.has_value()) << error;
  ASSERT_EQ(r->status, StatusCode::kOk) << r->error;
  EXPECT_EQ(r->results[0].num_occurrences, want);

  server->Stop();
  std::remove(config.unix_path.c_str());
}

}  // namespace
}  // namespace rigpm
