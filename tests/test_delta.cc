// Delta-log persistence tests (storage/delta_log.h): record round trips,
// the seeded checksum chain, crash recovery (torn tails replay their valid
// prefix; the writer truncates them), every prefix of a log, refusal of
// paths that are not regular files, base-binding enforcement, and both
// snapshot IO modes.

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "storage/delta_log.h"
#include "storage/snapshot.h"
#include "test_util.h"
#include "util/serde.h"

namespace rigpm {
namespace {

using rigpm::testing::PaperExample;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/rigpm_delta_XXXXXX";
    dir_ = ::mkdtemp(tmpl);
  }
  ~TempDir() { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

 private:
  std::string dir_;
};

std::vector<uint8_t> SerializeGraph(const Graph& g) {
  ByteSink sink;
  g.Serialize(sink);
  return sink.data();
}

uint64_t FileSize(const std::string& path) {
  struct stat st{};
  EXPECT_EQ(::stat(path.c_str(), &st), 0);
  return static_cast<uint64_t>(st.st_size);
}

void TruncateFile(const std::string& path, uint64_t size) {
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(size)), 0);
}

void FlipByte(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&b, 1);
}

constexpr uint64_t kBase = 0x1234abcd5678ef01ull;

/// Replays every record of `reader` past `after_seqno` over `base`: the
/// record walk and the rebuild step alone, so the reader's own view of the
/// tail stays observable.
std::optional<Graph> Replay(const Graph& base, DeltaReader& reader,
                            std::string* error, ReplayStats* stats = nullptr,
                            uint64_t after_seqno = 0) {
  std::vector<DeltaOp> ops;
  if (!CollectDeltaOps(reader, base.NumNodes(), after_seqno, &ops, stats,
                       error)) {
    return std::nullopt;
  }
  return ApplyDeltaOps(base, ops);
}

/// Round-trip and rejection tests run under both IO modes — replay must be
/// identical whether the log is mapped or slurped.
class DeltaIoTest : public ::testing::TestWithParam<SnapshotIoMode> {};

INSTANTIATE_TEST_SUITE_P(IoModes, DeltaIoTest,
                         ::testing::Values(SnapshotIoMode::kMmap,
                                           SnapshotIoMode::kRead),
                         [](const auto& info) {
                           return info.param == SnapshotIoMode::kMmap
                                      ? "mmap"
                                      : "read";
                         });

TEST_P(DeltaIoTest, WriteThenReplayEqualsInMemoryGraph) {
  TempDir tmp;
  const std::string path = tmp.Path("g.delta");
  Graph base = PaperExample::MakeGraph();

  std::string error;
  auto writer = DeltaWriter::Open(path, kBase, 10, &error);
  ASSERT_NE(writer, nullptr) << error;
  std::vector<std::pair<NodeId, NodeId>> batch1 = {{0, 3}, {0, 7}};
  std::vector<std::pair<NodeId, NodeId>> batch2 = {{6, 9}};
  ASSERT_TRUE(writer->Append(batch1, &error)) << error;
  ASSERT_TRUE(writer->Append(batch2, &error)) << error;
  EXPECT_EQ(writer->record_count(), 2u);

  DeltaReader reader(path, GetParam());
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.base_checksum(), kBase);
  ReplayStats stats;
  auto merged = Replay(base, reader, &error, &stats);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(stats.records_applied, 2u);
  EXPECT_EQ(stats.edges_in_records, 3u);
  EXPECT_EQ(stats.last_seqno, 2u);
  EXPECT_FALSE(reader.truncated());

  std::vector<std::pair<NodeId, NodeId>> all = batch1;
  all.insert(all.end(), batch2.begin(), batch2.end());
  Graph expected = ApplyEdgesToGraph(base, all);
  EXPECT_EQ(SerializeGraph(*merged), SerializeGraph(expected));
  EXPECT_EQ(merged->NumEdges(), base.NumEdges() + 3);
}

TEST_P(DeltaIoTest, ReplayAfterSeqnoSkipsOldRecords) {
  TempDir tmp;
  const std::string path = tmp.Path("g.delta");
  Graph base = PaperExample::MakeGraph();
  std::string error;
  auto writer = DeltaWriter::Open(path, kBase, 10, &error);
  ASSERT_NE(writer, nullptr) << error;
  ASSERT_TRUE(writer->Append({{0, 3}}, &error));
  ASSERT_TRUE(writer->Append({{0, 7}}, &error));
  ASSERT_TRUE(writer->Append({{6, 9}}, &error));

  DeltaReader reader(path, GetParam());
  ReplayStats stats;
  auto merged = Replay(base, reader, &error, &stats, /*after_seqno=*/2);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(stats.records_applied, 1u);
  EXPECT_EQ(stats.last_seqno, 3u);
  EXPECT_EQ(merged->NumEdges(), base.NumEdges() + 1);
}

TEST_P(DeltaIoTest, EmptyLogReplaysToTheBase) {
  TempDir tmp;
  const std::string path = tmp.Path("g.delta");
  Graph base = PaperExample::MakeGraph();
  std::string error;
  auto writer = DeltaWriter::Open(path, kBase, 10, &error);
  ASSERT_NE(writer, nullptr) << error;
  writer.reset();
  EXPECT_EQ(FileSize(path), 32u);  // header only

  DeltaReader reader(path, GetParam());
  ASSERT_TRUE(reader.ok()) << reader.error();
  ReplayStats stats;
  auto merged = Replay(base, reader, &error, &stats);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(stats.records_applied, 0u);
  EXPECT_EQ(SerializeGraph(*merged), SerializeGraph(base));
}

TEST_P(DeltaIoTest, MidRecordTruncationReplaysTheValidPrefix) {
  TempDir tmp;
  const std::string path = tmp.Path("g.delta");
  Graph base = PaperExample::MakeGraph();
  std::string error;
  auto writer = DeltaWriter::Open(path, kBase, 10, &error);
  ASSERT_NE(writer, nullptr) << error;
  ASSERT_TRUE(writer->Append({{0, 3}, {0, 7}}, &error));
  const uint64_t after_first = FileSize(path);
  ASSERT_TRUE(writer->Append({{6, 9}}, &error));
  writer.reset();

  // Cut into the middle of record 2 (a crashed append).
  TruncateFile(path, after_first + 5);

  DeltaReader reader(path, GetParam());
  ASSERT_TRUE(reader.ok()) << reader.error();
  DeltaRecord rec;
  ASSERT_TRUE(reader.Next(&rec));
  EXPECT_EQ(rec.seqno, 1u);
  EXPECT_EQ(rec.ops.size(), 2u);
  EXPECT_FALSE(reader.Next(&rec));
  EXPECT_TRUE(reader.truncated());
  EXPECT_TRUE(reader.tail_torn());  // a tear, not corruption
  EXPECT_FALSE(reader.tail_error().empty());

  // Replay applies record 1 and reports the truncation via the reader.
  DeltaReader replay_reader(path, GetParam());
  ReplayStats stats;
  auto merged = Replay(base, replay_reader, &error, &stats);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(stats.records_applied, 1u);
  EXPECT_TRUE(replay_reader.truncated());
  EXPECT_EQ(merged->NumEdges(), base.NumEdges() + 2);
}

TEST_P(DeltaIoTest, CorruptRecordEndsTheValidPrefix) {
  TempDir tmp;
  const std::string path = tmp.Path("g.delta");
  std::string error;
  auto writer = DeltaWriter::Open(path, kBase, 10, &error);
  ASSERT_NE(writer, nullptr) << error;
  ASSERT_TRUE(writer->Append({{0, 3}}, &error));
  const uint64_t after_first = FileSize(path);
  ASSERT_TRUE(writer->Append({{6, 9}}, &error));
  writer.reset();

  // Flip one byte inside record 2's edge list (past the 32-byte record
  // header): the BODY checksum no longer verifies, so iteration stops
  // after record 1. (The header-checksum path is covered by the writer's
  // CorruptAcknowledgedRecord test, which flips the header-checksum
  // field.)
  FlipByte(path, after_first + 32);

  DeltaReader reader(path, GetParam());
  ASSERT_TRUE(reader.ok()) << reader.error();
  DeltaRecord rec;
  EXPECT_TRUE(reader.Next(&rec));
  EXPECT_FALSE(reader.Next(&rec));
  EXPECT_TRUE(reader.truncated());
  EXPECT_FALSE(reader.tail_torn());  // full bytes present: corruption
  EXPECT_NE(reader.tail_error().find("checksum"), std::string::npos)
      << reader.tail_error();
}

TEST_P(DeltaIoTest, CorruptFirstRecordYieldsEmptyValidPrefix) {
  TempDir tmp;
  const std::string path = tmp.Path("g.delta");
  std::string error;
  auto writer = DeltaWriter::Open(path, kBase, 10, &error);
  ASSERT_NE(writer, nullptr) << error;
  ASSERT_TRUE(writer->Append({{0, 3}}, &error));
  writer.reset();
  FlipByte(path, 32 + 8);  // record 1's seqno field

  DeltaReader reader(path, GetParam());
  ASSERT_TRUE(reader.ok()) << reader.error();
  DeltaRecord rec;
  EXPECT_FALSE(reader.Next(&rec));
  EXPECT_TRUE(reader.truncated());
  EXPECT_EQ(reader.records_read(), 0u);
}

TEST_P(DeltaIoTest, RecordBoundToDifferentBaseBreaksTheChain) {
  TempDir tmp;
  const std::string path = tmp.Path("g.delta");
  std::string error;
  auto writer = DeltaWriter::Open(path, kBase, 10, &error);
  ASSERT_NE(writer, nullptr) << error;
  ASSERT_TRUE(writer->Append({{0, 3}}, &error));
  writer.reset();
  // Flip a byte of record 1's per-record base-checksum field.
  FlipByte(path, 32 + 2);

  DeltaReader reader(path, GetParam());
  ASSERT_TRUE(reader.ok()) << reader.error();
  DeltaRecord rec;
  EXPECT_FALSE(reader.Next(&rec));
  EXPECT_TRUE(reader.truncated());
  EXPECT_NE(reader.tail_error().find("different base"), std::string::npos)
      << reader.tail_error();
}

TEST_P(DeltaIoTest, OutOfRangeEndpointFailsReplayHard) {
  TempDir tmp;
  const std::string path = tmp.Path("g.delta");
  Graph base = PaperExample::MakeGraph();  // 10 nodes
  std::string error;
  {
    // The format layer itself refuses a record that could not replay
    // against the node count the log is bound to.
    auto writer = DeltaWriter::Open(path, kBase, 10, &error);
    ASSERT_NE(writer, nullptr) << error;
    EXPECT_FALSE(writer->Append({{0, 99}}, &error));
    EXPECT_NE(error.find("99"), std::string::npos) << error;
    EXPECT_EQ(writer->record_count(), 0u);
  }
  std::remove(path.c_str());
  // A log legitimately written for a BIGGER base (200 nodes) must fail
  // replay against a smaller graph loudly, not crash or truncate silently.
  auto writer = DeltaWriter::Open(path, kBase, 200, &error);
  ASSERT_NE(writer, nullptr) << error;
  ASSERT_TRUE(writer->Append({{0, 99}}, &error)) << error;
  writer.reset();

  DeltaReader reader(path, GetParam());
  EXPECT_EQ(reader.base_num_nodes(), 200u);
  ReplayStats stats;
  auto merged = Replay(base, reader, &error, &stats);
  EXPECT_FALSE(merged.has_value());
  EXPECT_NE(error.find("log does not match this base"), std::string::npos)
      << error;
}

TEST_P(DeltaIoTest, EveryPrefixReadsTheRecordsBeforeTheCut) {
  // A prefix shorter than the 32-byte header is no log; any longer one
  // holds exactly the records that end at or before the cut, and the bytes
  // of a record cut short read as a torn tail.
  TempDir tmp;
  const std::string path = tmp.Path("g.delta");
  const std::vector<std::vector<DeltaOp>> records = {
      {{0, 3, DeltaOpKind::kAdd}},
      {{6, 9, DeltaOpKind::kAdd}, {1, 3, DeltaOpKind::kDelete}},
      {{0, 7, DeltaOpKind::kAdd}, {1, 5, DeltaOpKind::kAdd}}};
  std::vector<uint64_t> record_ends;
  std::string error;
  {
    auto writer = DeltaWriter::Open(path, kBase, 10, &error);
    ASSERT_NE(writer, nullptr) << error;
    for (const std::vector<DeltaOp>& ops : records) {
      ASSERT_TRUE(writer->AppendOps(ops, &error)) << error;
      record_ends.push_back(FileSize(path));
    }
  }
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_EQ(bytes.size(), record_ends.back());

  const std::string cut_path = tmp.Path("cut.delta");
  for (size_t keep = 0; keep <= bytes.size(); ++keep) {
    {
      std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(keep));
    }
    DeltaReader reader(cut_path, GetParam());
    if (keep < kDeltaFileHeaderBytes) {
      EXPECT_FALSE(reader.ok()) << keep;
      EXPECT_FALSE(reader.error().empty()) << keep;
      continue;
    }
    ASSERT_TRUE(reader.ok()) << keep << ": " << reader.error();
    size_t whole = 0;
    while (whole < record_ends.size() && record_ends[whole] <= keep) ++whole;
    DeltaRecord rec;
    for (size_t i = 0; i < whole; ++i) {
      ASSERT_TRUE(reader.Next(&rec)) << keep << ": " << reader.tail_error();
      EXPECT_EQ(rec.seqno, i + 1) << keep;
      EXPECT_EQ(rec.ops, records[i]) << keep;
    }
    EXPECT_FALSE(reader.Next(&rec)) << keep;
    const bool bytes_remain =
        keep > (whole == 0 ? kDeltaFileHeaderBytes : record_ends[whole - 1]);
    EXPECT_EQ(reader.truncated(), bytes_remain) << keep;
    EXPECT_EQ(reader.tail_torn(), bytes_remain) << keep;
  }
}

TEST_P(DeltaIoTest, DirectoryAndFifoAreRefusedWithoutBlocking) {
  // The readers take regular files only: a directory or a FIFO given as
  // the log is refused, never read as an empty, caught-up log, and nothing
  // blocks in the open of the FIFO (each check runs in a child that is
  // killed after a few seconds). A missing log is still caught up.
  TempDir tmp;
  const std::string fifo = tmp.Path("fifo");
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
  const SnapshotIoMode mode = GetParam();
  for (const std::string& path : {tmp.Path(""), fifo}) {
    EXPECT_TRUE(rigpm::testing::ChildReturnsTrueWithin(
        [&] {
          DeltaReader reader(path, mode);
          DeltaRead read = ReadDeltaSince(path, mode, kBase, 10);
          if (!reader.ok() &&
              reader.error().find("not a regular file") != std::string::npos &&
              !read.ok &&
              read.error.find("not a regular file") != std::string::npos) {
            return true;
          }
          std::fprintf(stderr, "reader: %s; ReadDeltaSince: %s\n",
                       reader.ok() ? "ok" : reader.error().c_str(),
                       read.ok ? "ok" : read.error.c_str());
          return false;
        },
        /*seconds=*/5))
        << path;
  }
  DeltaRead missing = ReadDeltaSince(tmp.Path("nope.delta"), mode, kBase, 10);
  EXPECT_TRUE(missing.ok) << missing.error;
  EXPECT_EQ(missing.stats.records_applied, 0u);
}

// ------------------------------------------------------- writer semantics

TEST(DeltaWriter, ReopenContinuesTheChain) {
  TempDir tmp;
  const std::string path = tmp.Path("g.delta");
  std::string error;
  {
    auto writer = DeltaWriter::Open(path, kBase, 10, &error);
    ASSERT_NE(writer, nullptr) << error;
    ASSERT_TRUE(writer->Append({{0, 3}}, &error));
  }
  {
    auto writer = DeltaWriter::Open(path, kBase, 10, &error);
    ASSERT_NE(writer, nullptr) << error;
    EXPECT_EQ(writer->next_seqno(), 2u);
    ASSERT_TRUE(writer->Append({{0, 7}}, &error));
  }
  DeltaReader reader(path);
  DeltaRecord rec;
  EXPECT_TRUE(reader.Next(&rec));
  EXPECT_TRUE(reader.Next(&rec));
  EXPECT_EQ(rec.seqno, 2u);
  EXPECT_FALSE(reader.Next(&rec));
  EXPECT_FALSE(reader.truncated());
}

TEST(DeltaWriter, SecondConcurrentWriterIsRefused) {
  // Two live writers would both scan to the same chain position and
  // interleave same-seqno records; the flock makes the second Open fail
  // instead. Releasing the first writer frees the log.
  TempDir tmp;
  const std::string path = tmp.Path("g.delta");
  std::string error;
  auto first = DeltaWriter::Open(path, kBase, 10, &error);
  ASSERT_NE(first, nullptr) << error;
  auto second = DeltaWriter::Open(path, kBase, 10, &error);
  EXPECT_EQ(second, nullptr);
  EXPECT_NE(error.find("locked"), std::string::npos) << error;
  first.reset();
  auto third = DeltaWriter::Open(path, kBase, 10, &error);
  EXPECT_NE(third, nullptr) << error;
}

TEST(DeltaWriter, ReopenWithDifferentBaseIsRefused) {
  TempDir tmp;
  const std::string path = tmp.Path("g.delta");
  std::string error;
  {
    auto writer = DeltaWriter::Open(path, kBase, 10, &error);
    ASSERT_NE(writer, nullptr) << error;
    ASSERT_TRUE(writer->Append({{0, 3}}, &error));
  }
  auto writer = DeltaWriter::Open(path, kBase + 1, 10, &error);
  EXPECT_EQ(writer, nullptr);
  EXPECT_NE(error.find("different base"), std::string::npos) << error;
}

TEST(DeltaWriter, CorruptAcknowledgedRecordRefusesOpenInsteadOfTruncating) {
  // A full-size record that fails validation is disk corruption of
  // acknowledged data, not a crashed append — Open must refuse, not
  // quietly truncate every durable record after the corruption away.
  TempDir tmp;
  const std::string path = tmp.Path("g.delta");
  std::string error;
  uint64_t after_first = 0;
  {
    auto writer = DeltaWriter::Open(path, kBase, 10, &error);
    ASSERT_NE(writer, nullptr) << error;
    ASSERT_TRUE(writer->Append({{0, 3}}, &error));
    after_first = FileSize(path);
    ASSERT_TRUE(writer->Append({{6, 9}}, &error));
  }
  const uint64_t full_size = FileSize(path);
  FlipByte(path, after_first + 24);  // record 2's header-checksum field
  auto writer = DeltaWriter::Open(path, kBase, 10, &error);
  EXPECT_EQ(writer, nullptr);
  EXPECT_NE(error.find("corrupt"), std::string::npos) << error;
  EXPECT_EQ(FileSize(path), full_size);  // nothing was destroyed
}

TEST(DeltaWriter, ReopenTruncatesATornTailAndRecovers) {
  TempDir tmp;
  const std::string path = tmp.Path("g.delta");
  std::string error;
  uint64_t after_first = 0;
  {
    auto writer = DeltaWriter::Open(path, kBase, 10, &error);
    ASSERT_NE(writer, nullptr) << error;
    ASSERT_TRUE(writer->Append({{0, 3}}, &error));
    after_first = FileSize(path);
    ASSERT_TRUE(writer->Append({{6, 9}}, &error));
  }
  // Simulate a crash mid-append of record 2.
  TruncateFile(path, after_first + 7);
  {
    auto writer = DeltaWriter::Open(path, kBase, 10, &error);
    ASSERT_NE(writer, nullptr) << error;
    EXPECT_EQ(writer->next_seqno(), 2u);  // torn record 2 was dropped
    EXPECT_EQ(FileSize(path), after_first);
    ASSERT_TRUE(writer->Append({{1, 5}}, &error));
  }
  DeltaReader reader(path);
  DeltaRecord rec;
  ASSERT_TRUE(reader.Next(&rec));
  EXPECT_EQ(rec.ops, (std::vector<DeltaOp>{{0, 3, DeltaOpKind::kAdd}}));
  ASSERT_TRUE(reader.Next(&rec));
  EXPECT_EQ(rec.seqno, 2u);
  EXPECT_EQ(rec.ops, (std::vector<DeltaOp>{{1, 5, DeltaOpKind::kAdd}}));
  EXPECT_FALSE(reader.Next(&rec));
  EXPECT_FALSE(reader.truncated());
}

TEST(DeltaWriter, ShortNonDeltaFileIsRefusedNotClobbered) {
  // A mistyped --delta pointing at some small existing file must not be
  // "initialized" over: only truly empty files get a header. (A >=24-byte
  // non-delta file is already refused by the magic check.)
  TempDir tmp;
  const std::string path = tmp.Path("notes.txt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "ten bytes!";
  }
  std::string error;
  auto writer = DeltaWriter::Open(path, kBase, 10, &error);
  EXPECT_EQ(writer, nullptr);
  EXPECT_NE(error.find("refusing"), std::string::npos) << error;
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "ten bytes!");
}

TEST(DeltaReader, NonDeltaFileIsRejected) {
  TempDir tmp;
  // A real engine snapshot is not a delta log.
  const std::string snap = tmp.Path("g.snap");
  Graph g = PaperExample::MakeGraph();
  GmEngine engine(g);
  std::string error;
  ASSERT_TRUE(SaveEngineSnapshot(engine, snap, &error)) << error;
  DeltaReader reader(snap);
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("not a delta log"), std::string::npos)
      << reader.error();

  DeltaReader missing(tmp.Path("nope.delta"));
  EXPECT_FALSE(missing.ok());
}

// ------------------------------------------------- snapshot-bound lifecycle

TEST(DeltaLifecycle, SnapshotDeltaReplayMatchesDirectRebuild) {
  // The full workflow the serving tier uses: snapshot a graph, journal
  // updates against the snapshot's stored checksum, replay base+delta, and
  // get exactly the graph a cold rebuild with those edges produces —
  // including query answers.
  TempDir tmp;
  const std::string snap = tmp.Path("base.snap");
  const std::string log = tmp.Path("g.delta");
  Graph g = GeneratePowerLaw({.num_nodes = 120, .num_edges = 420,
                              .num_labels = 3, .seed = 11});
  GmEngine engine(g);
  std::string error;
  ASSERT_TRUE(SaveEngineSnapshot(engine, snap, &error)) << error;
  auto info = InspectSnapshot(snap, &error);
  ASSERT_TRUE(info.has_value()) << error;

  auto writer =
      DeltaWriter::Open(log, info->stored_checksum, g.NumNodes(), &error);
  ASSERT_NE(writer, nullptr) << error;
  std::vector<std::pair<NodeId, NodeId>> batch1 = {{0, 50}, {3, 99}};
  std::vector<std::pair<NodeId, NodeId>> batch2 = {{7, 101}, {50, 3}};
  ASSERT_TRUE(writer->Append(batch1, &error));
  ASSERT_TRUE(writer->Append(batch2, &error));
  writer.reset();

  auto warm = LoadEngineSnapshot(snap, {}, &error);
  ASSERT_TRUE(warm.has_value()) << error;
  DeltaReader reader(log);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.base_checksum(), info->stored_checksum);
  auto merged = Replay(*warm->graph, reader, &error);
  ASSERT_TRUE(merged.has_value()) << error;

  std::vector<std::pair<NodeId, NodeId>> all = batch1;
  all.insert(all.end(), batch2.begin(), batch2.end());
  Graph direct = ApplyEdgesToGraph(g, all);
  EXPECT_EQ(SerializeGraph(*merged), SerializeGraph(direct));

  GmEngine merged_engine(*merged);
  GmEngine direct_engine(direct);
  PatternQuery q = PaperExample::MakeQuery();
  EXPECT_EQ(merged_engine.EvaluateCollect(q).size(),
            direct_engine.EvaluateCollect(q).size());
}

// ---------------------------------------------------------------------------
// Op records: delete ops round-trip, the single-version header gate, and
// crash recovery repeated for flagged records.

TEST_P(DeltaIoTest, OpsRecordRoundTripsAddsAndDeletes) {
  TempDir tmp;
  const std::string path = tmp.Path("g.delta");
  Graph base = PaperExample::MakeGraph();

  std::string error;
  auto writer = DeltaWriter::Open(path, kBase, 10, &error);
  ASSERT_NE(writer, nullptr) << error;
  // Delete two edges the paper-example graph really has, add one new one.
  std::vector<DeltaOp> ops = {{0, 3, DeltaOpKind::kAdd},
                              {1, 3, DeltaOpKind::kDelete},
                              {2, 5, DeltaOpKind::kDelete}};
  ASSERT_TRUE(writer->AppendOps(ops, &error)) << error;
  writer.reset();

  DeltaReader reader(path, GetParam());
  ASSERT_TRUE(reader.ok()) << reader.error();
  DeltaRecord rec;
  ASSERT_TRUE(reader.Next(&rec));
  EXPECT_EQ(rec.ops, ops);
  EXPECT_EQ(rec.delete_count(), 2u);
  EXPECT_FALSE(reader.Next(&rec));
  EXPECT_FALSE(reader.truncated());

  DeltaReader replay_reader(path, GetParam());
  ReplayStats stats;
  auto merged = Replay(base, replay_reader, &error, &stats);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(stats.delete_ops, 2u);
  Graph expected = ApplyDeltaOps(base, ops);
  EXPECT_EQ(SerializeGraph(*merged), SerializeGraph(expected));
  EXPECT_EQ(merged->NumEdges(), base.NumEdges() - 1);
}

TEST_P(DeltaIoTest, TornTailWithDeleteOpsReplaysTheValidPrefix) {
  // The torn-tail recovery story must hold for flagged records too: their
  // body carries an extra op-kind byte array, so the truncation point lands
  // differently than for an add-only record of the same edge count.
  TempDir tmp;
  const std::string path = tmp.Path("g.delta");
  Graph base = PaperExample::MakeGraph();
  std::string error;
  auto writer = DeltaWriter::Open(path, kBase, 10, &error);
  ASSERT_NE(writer, nullptr) << error;
  std::vector<DeltaOp> rec1 = {{0, 3, DeltaOpKind::kAdd},
                               {1, 3, DeltaOpKind::kDelete}};
  std::vector<DeltaOp> rec2 = {{6, 9, DeltaOpKind::kAdd},
                               {2, 5, DeltaOpKind::kDelete}};
  ASSERT_TRUE(writer->AppendOps(rec1, &error)) << error;
  const uint64_t after_rec1 = FileSize(path);
  ASSERT_TRUE(writer->AppendOps(rec2, &error)) << error;
  writer.reset();

  // Tear record 2 inside its op-kind byte array (just before the trailing
  // checksum): everything but the last 9 bytes survives.
  TruncateFile(path, FileSize(path) - 9);
  DeltaReader reader(path, GetParam());
  ASSERT_TRUE(reader.ok()) << reader.error();
  ReplayStats stats;
  auto merged = Replay(base, reader, &error, &stats);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(stats.records_applied, 1u);
  EXPECT_EQ(stats.delete_ops, 1u);
  EXPECT_TRUE(reader.truncated());
  EXPECT_TRUE(reader.tail_torn());
  EXPECT_EQ(SerializeGraph(*merged),
            SerializeGraph(ApplyDeltaOps(base, rec1)));

  // Writer reopen truncates the torn flagged record and continues the
  // chain; the re-appended record must validate against record 1's
  // checksum, not the torn bytes'.
  writer = DeltaWriter::Open(path, kBase, 0, &error);
  ASSERT_NE(writer, nullptr) << error;
  EXPECT_EQ(FileSize(path), after_rec1);
  EXPECT_EQ(writer->next_seqno(), 2u);
  ASSERT_TRUE(writer->AppendOps(rec2, &error)) << error;
  writer.reset();

  DeltaReader reader2(path, GetParam());
  ASSERT_TRUE(reader2.ok()) << reader2.error();
  auto merged2 = Replay(base, reader2, &error, &stats);
  ASSERT_TRUE(merged2.has_value()) << error;
  EXPECT_EQ(stats.records_applied, 2u);
  EXPECT_FALSE(reader2.truncated());
  std::vector<DeltaOp> all = rec1;
  all.insert(all.end(), rec2.begin(), rec2.end());
  EXPECT_EQ(SerializeGraph(*merged2), SerializeGraph(ApplyDeltaOps(base, all)));
}

TEST(DeltaVersion, ForeignVersionIsRefusedWithVersionMessageNotChainError) {
  // A log is written and read by the same build: a header stamped with the
  // old add-only version 3 or a future 5 is refused by the writer and the
  // reader alike, up front, with a version message — never reported as a
  // checksum/chain failure of the records behind it.
  for (uint32_t version : {3u, 5u}) {
    TempDir tmp;
    const std::string path = tmp.Path("g.delta");
    std::string error;
    {
      auto writer = DeltaWriter::Open(path, kBase, 10, &error);
      ASSERT_NE(writer, nullptr) << error;
      ASSERT_TRUE(writer->Append({{0, 3}}, &error)) << error;
    }
    {
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(f.is_open());
      f.seekp(8);  // u32 version right after the 8-byte magic
      f.write(reinterpret_cast<const char*>(&version), sizeof(version));
    }
    EXPECT_EQ(DeltaWriter::Open(path, kBase, 0, &error), nullptr) << version;
    EXPECT_NE(error.find("unsupported delta log version"), std::string::npos)
        << error;
    EXPECT_EQ(error.find("checksum"), std::string::npos) << error;
    for (SnapshotIoMode mode : {SnapshotIoMode::kRead, SnapshotIoMode::kMmap}) {
      DeltaReader reader(path, mode);
      EXPECT_FALSE(reader.ok()) << version;
      EXPECT_NE(reader.error().find("unsupported delta log version"),
                std::string::npos)
          << reader.error();
      EXPECT_EQ(reader.error().find("checksum"), std::string::npos)
          << reader.error();
    }
  }
}

}  // namespace
}  // namespace rigpm
