// Persistence subsystem tests (storage/snapshot.h, util/serde.h): bitmap
// and graph round trips, warm-start engine equivalence under both IO modes
// (zero-copy mmap and streaming read) and batch thread counts, header
// inspection, FIFO streaming fallback, and rejection of malformed input for
// both the binary snapshot reader and the text graph reader. Every
// malformed-file check runs under both IO modes — corrupt mapped files must
// be rejected before any decode, exactly like corrupt slurped ones.

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <thread>
#include <cstring>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util/workloads.h"
#include "bitmap/bitmap.h"
#include "engine/gm_engine.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "query/query_generator.h"
#include "reach/bfl_index.h"
#include "storage/delta_log.h"
#include "storage/snapshot.h"
#include "test_util.h"
#include "util/serde.h"

namespace rigpm {
namespace {

using rigpm::testing::PaperExample;

constexpr SnapshotIoMode kBothModes[] = {SnapshotIoMode::kMmap,
                                         SnapshotIoMode::kRead};

const char* ModeName(SnapshotIoMode mode) {
  return mode == SnapshotIoMode::kMmap ? "mmap" : "read";
}

// Unique temp path per test; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& stem) {
    static int counter = 0;
    path_ = (std::filesystem::temp_directory_path() /
             (stem + "." + std::to_string(::getpid()) + "." +
              std::to_string(counter++) + ".snap"))
                .string();
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void DumpFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Bitmap RoundTrip(const Bitmap& b) {
  ByteSink sink;
  b.Serialize(sink);
  ByteSource src(sink.data().data(), sink.size());
  Bitmap out = Bitmap::Deserialize(src);
  EXPECT_TRUE(src.ok()) << src.error();
  EXPECT_EQ(src.remaining(), 0u);
  return out;
}

// ------------------------------------------------------------- checksum

TEST(ChecksumStream, MatchesOneShotAcrossChunkings) {
  std::mt19937_64 rng(99);
  std::vector<uint8_t> data(100'000);
  for (auto& b : data) b = static_cast<uint8_t>(rng());
  const uint64_t expected = Checksum64(data.data(), data.size());
  for (size_t chunk : {size_t{1}, size_t{7}, size_t{31}, size_t{32},
                       size_t{33}, size_t{4096}, data.size()}) {
    Checksum64Stream stream;
    for (size_t off = 0; off < data.size(); off += chunk) {
      stream.Update(data.data() + off, std::min(chunk, data.size() - off));
    }
    EXPECT_EQ(stream.Finish(), expected) << "chunk " << chunk;
  }
  Checksum64Stream empty;
  EXPECT_EQ(empty.Finish(), Checksum64(nullptr, 0));
}

// --------------------------------------------------------------- bitmaps

TEST(BitmapSerde, EmptyRoundTrips) {
  Bitmap empty;
  EXPECT_EQ(RoundTrip(empty), empty);
}

TEST(BitmapSerde, SparseDenseAndMultiContainerRoundTrip) {
  // Sparse array container.
  Bitmap sparse{1, 5, 100, 65535};
  EXPECT_EQ(RoundTrip(sparse), sparse);

  // Dense bitset container (cardinality > kArrayCapacity).
  Bitmap dense;
  for (uint32_t i = 0; i < 3 * Bitmap::kArrayCapacity; ++i) dense.Add(2 * i);
  ASSERT_GT(dense.ContainerCount(), 0u);
  EXPECT_EQ(RoundTrip(dense), dense);

  // Mixed: array and bitset containers across several chunks.
  Bitmap mixed = dense;
  mixed.Add(10'000'000);
  mixed.Add(4'000'000'000u);
  EXPECT_EQ(RoundTrip(mixed), mixed);
}

TEST(BitmapSerde, RandomRoundTrips) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 10; ++round) {
    Bitmap b;
    std::uniform_int_distribution<uint32_t> dist(0, 1u << 20);
    int n = 1 + static_cast<int>(rng() % 20000);
    for (int i = 0; i < n; ++i) b.Add(dist(rng));
    EXPECT_EQ(RoundTrip(b), b);
  }
}

TEST(BitmapSerde, TruncatedPayloadFailsSoftly) {
  Bitmap b{1, 2, 3, 70000};
  ByteSink sink;
  b.Serialize(sink);
  for (size_t cut : {size_t{0}, size_t{3}, sink.size() / 2, sink.size() - 1}) {
    ByteSource src(sink.data().data(), cut);
    Bitmap out = Bitmap::Deserialize(src);
    EXPECT_FALSE(src.ok());
    EXPECT_TRUE(out.Empty());
  }
}

// Decodes a hand-built bitmap image that must be refused: the decoder fails
// softly, with `expect_substr` in its error and an empty result.
void ExpectBitmapRefused(const ByteSink& sink, const char* expect_substr) {
  ByteSource src(sink.data().data(), sink.size());
  Bitmap out = Bitmap::Deserialize(src);
  EXPECT_FALSE(src.ok());
  EXPECT_NE(src.error().find(expect_substr), std::string::npos)
      << src.error();
  EXPECT_TRUE(out.Empty());
}

// One container header (u16 key, u8 kind, u32 cardinality) plus padding.
void WriteContainerHeader(ByteSink& sink, uint8_t kind, uint32_t card) {
  sink.WriteU16(0);
  sink.WriteU8(kind);
  sink.WriteU32(card);
  sink.PadTo8();
}

TEST(BitmapSerde, OversizedContainerCountFailsSoftly) {
  // A count is checked before anything is reserved for it: more than one
  // container per 16-bit key, or more headers than the bytes left can hold.
  for (uint32_t count : {0xFFFFFFFFu, 65537u}) {
    ByteSink sink;
    sink.WriteU32(count);
    std::vector<uint8_t> headers(size_t{65537} * 7, 0);
    sink.WriteRaw(headers.data(), headers.size());
    ExpectBitmapRefused(sink, "container count");
  }
  ByteSink short_payload;
  short_payload.WriteU32(2);
  WriteContainerHeader(short_payload, 0, 1);
  ExpectBitmapRefused(short_payload, "container count");
}

TEST(BitmapSerde, UnknownContainerKindIsRefused) {
  ByteSink sink;
  sink.WriteU32(1);
  WriteContainerHeader(sink, 2, 1);
  sink.WriteU16(7);
  ExpectBitmapRefused(sink, "unknown bitmap container kind");
}

TEST(BitmapSerde, BitsetOfArraySizeIsRefused) {
  // 4096 values fit an array, so a bitset holding them is non-canonical.
  ByteSink sink;
  sink.WriteU32(1);
  WriteContainerHeader(sink, 1, Bitmap::kArrayCapacity);
  std::vector<uint64_t> words(1024, 0);
  std::fill(words.begin(), words.begin() + 64, ~uint64_t{0});
  sink.WriteRaw(words.data(), words.size() * sizeof(uint64_t));
  ExpectBitmapRefused(sink, "non-canonical");
}

// --------------------------------------------------------------- graphs

void ExpectSameGraph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  ASSERT_EQ(a.NumLabels(), b.NumLabels());
  for (NodeId v = 0; v < a.NumNodes(); ++v) {
    EXPECT_EQ(a.Label(v), b.Label(v));
    ASSERT_EQ(a.OutDegree(v), b.OutDegree(v));
    ASSERT_EQ(a.InDegree(v), b.InDegree(v));
    for (uint32_t i = 0; i < a.OutDegree(v); ++i) {
      EXPECT_EQ(a.OutNeighbors(v)[i], b.OutNeighbors(v)[i]);
    }
    for (uint32_t i = 0; i < a.InDegree(v); ++i) {
      EXPECT_EQ(a.InNeighbors(v)[i], b.InNeighbors(v)[i]);
    }
  }
  for (LabelId l = 0; l < a.NumLabels(); ++l) {
    // Bitmap contents must be byte-identical, not just equivalent.
    EXPECT_EQ(a.LabelBitmap(l), b.LabelBitmap(l));
  }
}

TEST(GraphSnapshot, PaperExampleRoundTripsUnderBothIoModes) {
  Graph g = PaperExample::MakeGraph();
  TempFile file("graph_paper");
  std::string error;
  ASSERT_TRUE(SaveGraphSnapshot(g, file.path(), &error)) << error;
  for (SnapshotIoMode mode : kBothModes) {
    auto loaded = LoadGraphSnapshot(file.path(), {.io_mode = mode}, &error);
    ASSERT_TRUE(loaded.has_value()) << ModeName(mode) << ": " << error;
    ExpectSameGraph(g, *loaded);
  }
}

TEST(GraphSnapshot, GeneratedGraphsRoundTrip) {
  GeneratorOptions opts;
  opts.num_nodes = 500;
  opts.num_edges = 2500;
  opts.num_labels = 6;
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    opts.seed = seed;
    for (const Graph& g : {GenerateErdosRenyi(opts), GeneratePowerLaw(opts),
                           GenerateRandomDag(opts)}) {
      TempFile file("graph_gen");
      std::string error;
      ASSERT_TRUE(SaveGraphSnapshot(g, file.path(), &error)) << error;
      for (SnapshotIoMode mode : kBothModes) {
        auto loaded = LoadGraphSnapshot(file.path(), {.io_mode = mode}, &error);
        ASSERT_TRUE(loaded.has_value()) << ModeName(mode) << ": " << error;
        ExpectSameGraph(g, *loaded);
      }
    }
  }
}

TEST(GraphSnapshot, MmapLoadedGraphOutlivesReaderAndDeletedFile) {
  // The zero-copy contract: the loaded graph borrows from the mapping and
  // owns a token keeping it alive, so it must stay fully usable after the
  // reader is gone, after the file is unlinked, and across moves. (ASan in
  // CI turns any lifetime violation here into a hard failure.)
  Graph g = PaperExample::MakeGraph();
  TempFile file("graph_lifetime");
  ASSERT_TRUE(SaveGraphSnapshot(g, file.path()));
  std::optional<Graph> loaded =
      LoadGraphSnapshot(file.path(), {.io_mode = SnapshotIoMode::kMmap});
  ASSERT_TRUE(loaded.has_value());
  std::remove(file.path().c_str());  // mapping survives the unlink

  Graph moved = std::move(*loaded);
  loaded.reset();
  ExpectSameGraph(g, moved);

  // Copies deep-copy: mutating a copied bitmap must not touch the original
  // (which may be a borrowed view of the mapping).
  Bitmap copy = moved.LabelBitmap(0);
  Bitmap before = copy;
  copy.Add(31);
  copy.Remove(0);
  EXPECT_NE(copy, moved.LabelBitmap(0));
  EXPECT_EQ(before, moved.LabelBitmap(0));
}

// The container census of every label bitmap of `g`.
BitmapContainerStats LabelBitmapStats(const Graph& g) {
  BitmapContainerStats stats;
  for (LabelId a = 0; a < g.NumLabels(); ++a) {
    g.LabelBitmap(a).AccumulateStats(&stats);
  }
  return stats;
}

TEST(GraphSnapshot, MmapLoadKeepsContainersEncodedUntilMutation) {
  // The daemon RSS accounting contract: after an mmap load the graph's CSR
  // arrays and label-bitmap payloads stay *inside the mapping*, so
  // OwnedHeapBytes must be far below the decoded footprint, borrowed
  // container counts must equal total container counts, and reads must not
  // change either. This is what makes resident memory track snapshot size
  // in serving.
  GeneratorOptions opts;
  opts.num_nodes = 3000;
  opts.num_edges = 40000;
  opts.num_labels = 4;
  opts.seed = 5;
  Graph g = GenerateErdosRenyi(opts);
  TempFile file("graph_lazy");
  std::string error;
  ASSERT_TRUE(SaveGraphSnapshot(g, file.path(), &error)) << error;

  auto mapped = LoadGraphSnapshot(
      file.path(), {.io_mode = SnapshotIoMode::kMmap}, &error);
  ASSERT_TRUE(mapped.has_value()) << error;
  auto slurped = LoadGraphSnapshot(
      file.path(), {.io_mode = SnapshotIoMode::kRead}, &error);
  ASSERT_TRUE(slurped.has_value()) << error;

  const BitmapContainerStats mapped_stats = LabelBitmapStats(*mapped);
  EXPECT_GT(mapped_stats.TotalContainers(), 0u);
  EXPECT_EQ(mapped_stats.borrowed_containers, mapped_stats.TotalContainers());

  // Owned heap: the mapped graph holds label-bitmap container tables but no
  // arrays or payloads; the slurped graph owns everything it decoded.
  EXPECT_LT(mapped->OwnedHeapBytes(), slurped->OwnedHeapBytes());

  // Reads leave the accounting untouched.
  const size_t before = mapped->OwnedHeapBytes();
  uint64_t sum = 0;
  for (NodeId v = 0; v < mapped->NumNodes(); v += 7) {
    for (NodeId w : mapped->OutNeighbors(v)) sum += w;
  }
  for (LabelId a = 0; a < mapped->NumLabels(); ++a) {
    mapped->LabelBitmap(a).ForEach([&sum](uint32_t w) { sum += w; });
  }
  ASSERT_GT(sum, 0u);
  EXPECT_EQ(mapped->OwnedHeapBytes(), before);
  EXPECT_EQ(LabelBitmapStats(*mapped).borrowed_containers,
            mapped_stats.borrowed_containers);
}

// Heap owned by an mmap load of a 4-label random graph of `nodes` nodes and
// 8 edges per node; nullopt (with a test failure) if it does not load.
std::optional<size_t> MappedGraphHeapBytes(uint32_t nodes) {
  GeneratorOptions opts;
  opts.num_nodes = nodes;
  opts.num_edges = uint64_t{nodes} * 8;
  opts.num_labels = 4;
  opts.seed = 9;
  Graph g = GenerateErdosRenyi(opts);
  TempFile file("graph_heap");
  std::string error;
  if (!SaveGraphSnapshot(g, file.path(), &error)) {
    ADD_FAILURE() << error;
    return std::nullopt;
  }
  auto mapped = LoadGraphSnapshot(
      file.path(), {.io_mode = SnapshotIoMode::kMmap}, &error);
  if (!mapped.has_value()) {
    ADD_FAILURE() << error;
    return std::nullopt;
  }
  return mapped->OwnedHeapBytes();
}

TEST(GraphSnapshot, MmapLoadedHeapDoesNotGrowWithNodeCount) {
  // A mapped graph borrows its CSR rows, label lists and label-bitmap
  // payloads; it owns only the label bitmaps' container tables, which the
  // label count sizes. Ten times the nodes over the same labels (all ids in
  // one 2^16 chunk) must cost no more heap.
  const std::optional<size_t> small = MappedGraphHeapBytes(3000);
  const std::optional<size_t> large = MappedGraphHeapBytes(30000);
  ASSERT_TRUE(small.has_value() && large.has_value());
  EXPECT_LE(*large, *small);
}

TEST(GraphSnapshot, InspectReportsHeaderWithoutDecoding) {
  Graph g = PaperExample::MakeGraph();
  TempFile file("graph_inspect");
  ASSERT_TRUE(SaveGraphSnapshot(g, file.path()));
  std::string error;
  auto info = InspectSnapshot(file.path(), &error);
  ASSERT_TRUE(info.has_value()) << error;
  EXPECT_EQ(info->version, kSnapshotVersion);
  EXPECT_EQ(info->kind_value, static_cast<uint32_t>(SnapshotKind::kGraph));
  EXPECT_EQ(info->file_size, info->payload_size + 24 + 8);

  // Inspect must work even when the payload itself is garbage (that is the
  // point: debugging files that fail to load) ...
  std::ofstream out(file.path(),
                    std::ios::binary | std::ios::in | std::ios::out);
  out.seekp(30);
  out.put('\xFF');
  out.close();
  EXPECT_TRUE(InspectSnapshot(file.path(), &error).has_value());

  // ... but still reject files too short to hold a header.
  TempFile stub("inspect_stub");
  DumpFile(stub.path(), "RIGPM");
  EXPECT_FALSE(InspectSnapshot(stub.path(), &error).has_value());
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST(GraphSnapshot, TextWriteOfLoadedGraphIsIdentical) {
  Graph g = PaperExample::MakeGraph();
  TempFile file("graph_text");
  ASSERT_TRUE(SaveGraphSnapshot(g, file.path()));
  auto loaded = LoadGraphSnapshot(file.path());
  ASSERT_TRUE(loaded.has_value());
  std::ostringstream a, b;
  WriteGraph(g, a);
  WriteGraph(*loaded, b);
  EXPECT_EQ(a.str(), b.str());
}

// --------------------------------------------------------------- engines

std::set<std::vector<NodeId>> CollectSet(const GmEngine& engine,
                                         const PatternQuery& q) {
  auto tuples = engine.EvaluateCollect(q);
  return {tuples.begin(), tuples.end()};
}

TEST(EngineSnapshot, WarmStartMatchesColdStartOnPaperExample) {
  Graph g = PaperExample::MakeGraph();
  GmEngine cold(g);
  TempFile file("engine_paper");
  std::string error;
  ASSERT_TRUE(SaveEngineSnapshot(cold, file.path(), &error)) << error;
  for (SnapshotIoMode mode : kBothModes) {
    auto warm = LoadEngineSnapshot(file.path(), {.io_mode = mode}, &error);
    ASSERT_TRUE(warm.has_value()) << ModeName(mode) << ": " << error;
    ExpectSameGraph(g, *warm->graph);

    PatternQuery q = PaperExample::MakeQuery();
    EXPECT_EQ(CollectSet(cold, q), PaperExample::ExpectedAnswer());
    EXPECT_EQ(CollectSet(*warm->engine, q), PaperExample::ExpectedAnswer())
        << ModeName(mode);
  }
}

TEST(EngineSnapshot, WarmStartMatchesColdStartOnRandomGraphs) {
  GeneratorOptions gopts;
  gopts.num_nodes = 400;
  gopts.num_edges = 2000;
  gopts.num_labels = 5;
  RandomQueryOptions qopts;
  qopts.num_nodes = 4;
  qopts.num_edges = 5;
  qopts.num_labels = gopts.num_labels;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    gopts.seed = seed;
    Graph g = seed % 2 == 0 ? GeneratePowerLaw(gopts)
                            : GenerateErdosRenyi(gopts);
    GmEngine cold(g);
    TempFile file("engine_rand");
    std::string error;
    ASSERT_TRUE(SaveEngineSnapshot(cold, file.path(), &error)) << error;
    // Load via zero-copy mmap AND streaming read: both engines must agree
    // with the cold build (and therefore with each other) on every query.
    auto warm_mmap = LoadEngineSnapshot(
        file.path(), {.io_mode = SnapshotIoMode::kMmap}, &error);
    ASSERT_TRUE(warm_mmap.has_value()) << error;
    auto warm_read = LoadEngineSnapshot(
        file.path(), {.io_mode = SnapshotIoMode::kRead}, &error);
    ASSERT_TRUE(warm_read.has_value()) << error;

    for (uint64_t qseed = 1; qseed <= 5; ++qseed) {
      qopts.seed = qseed;
      PatternQuery q = GenerateRandomQuery(qopts);
      if (!q.IsConnected()) continue;
      auto expected = CollectSet(cold, q);
      EXPECT_EQ(expected, CollectSet(*warm_mmap->engine, q))
          << "mmap: graph seed " << seed << " query seed " << qseed;
      EXPECT_EQ(expected, CollectSet(*warm_read->engine, q))
          << "read: graph seed " << seed << " query seed " << qseed;
    }
  }
}

TEST(EngineSnapshot, WarmStartMatchesColdStartOnTemplateWorkload) {
  GeneratorOptions gopts;
  gopts.num_nodes = 1000;
  gopts.num_edges = 5000;
  gopts.num_labels = 8;
  gopts.seed = 11;
  Graph g = GeneratePowerLaw(gopts);
  GmEngine cold(g);
  TempFile file("engine_tmpl");
  std::string error;
  ASSERT_TRUE(SaveEngineSnapshot(cold, file.path(), &error)) << error;
  auto warm = LoadEngineSnapshot(file.path(), {}, &error);
  ASSERT_TRUE(warm.has_value()) << error;

  auto workload = TemplateWorkload(g, RepresentativeTemplateNames(),
                                   QueryVariant::kHybrid, /*seed=*/17);
  for (const NamedQuery& nq : workload) {
    GmOptions opts;
    opts.limit = 20000;
    GmResult a = cold.Evaluate(nq.query, opts);
    GmResult b = warm->engine->Evaluate(nq.query, opts);
    EXPECT_EQ(a.num_occurrences, b.num_occurrences) << nq.name;
  }
}

TEST(EngineSnapshot, MmapLoadMatchesColdOnTemplateWorkload) {
  GeneratorOptions gopts;
  gopts.num_nodes = 1000;
  gopts.num_edges = 5000;
  gopts.num_labels = 8;
  gopts.seed = 11;
  Graph g = GeneratePowerLaw(gopts);
  GmEngine cold(g);
  TempFile file("engine_tmpl_mmap");
  std::string error;
  ASSERT_TRUE(SaveEngineSnapshot(cold, file.path(), &error)) << error;
  auto warm = LoadEngineSnapshot(file.path(),
                                 {.io_mode = SnapshotIoMode::kMmap}, &error);
  ASSERT_TRUE(warm.has_value()) << error;

  auto workload = TemplateWorkload(g, RepresentativeTemplateNames(),
                                   QueryVariant::kHybrid, /*seed=*/17);
  for (const NamedQuery& nq : workload) {
    GmOptions opts;
    opts.limit = 20000;
    GmResult a = cold.Evaluate(nq.query, opts);
    GmResult b = warm->engine->Evaluate(nq.query, opts);
    EXPECT_EQ(a.num_occurrences, b.num_occurrences) << nq.name;
  }
}

TEST(EngineSnapshot, BatchServingMatchesAcrossThreadCounts) {
  Graph g = PaperExample::MakeGraph();
  GmEngine cold(g);
  TempFile file("engine_batch");
  ASSERT_TRUE(SaveEngineSnapshot(cold, file.path()));
  for (SnapshotIoMode mode : kBothModes) {
    auto warm = LoadEngineSnapshot(file.path(), {.io_mode = mode});
    ASSERT_TRUE(warm.has_value());

    std::vector<PatternQuery> batch(6, PaperExample::MakeQuery());
    for (uint32_t threads : {1u, 2u, 4u}) {
      GmOptions opts;
      opts.num_threads = threads;
      auto cold_results = cold.EvaluateBatch(batch, opts);
      auto warm_results = warm->engine->EvaluateBatch(batch, opts);
      ASSERT_EQ(cold_results.size(), warm_results.size());
      for (size_t i = 0; i < cold_results.size(); ++i) {
        EXPECT_EQ(cold_results[i].num_occurrences,
                  warm_results[i].num_occurrences)
            << ModeName(mode);
      }
    }
  }
}

// ------------------------------------------------------- malformed binary

class MalformedSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Graph g = PaperExample::MakeGraph();
    ASSERT_TRUE(SaveGraphSnapshot(g, file_.path()));
    bytes_ = SlurpFile(file_.path());
    ASSERT_GT(bytes_.size(), 24u);
  }

  // Every malformed file must be rejected before any decode under BOTH IO
  // modes — a corrupt mapped file is just as dangerous as a corrupt slurped
  // one. `expect_substr` must appear in the error (empty = any error).
  void ExpectRejected(const std::string& contents,
                      const char* expect_substr = "") {
    DumpFile(file_.path(), contents);
    for (SnapshotIoMode mode : kBothModes) {
      std::string error;
      EXPECT_FALSE(LoadGraphSnapshot(file_.path(), {.io_mode = mode}, &error).has_value())
          << ModeName(mode);
      EXPECT_FALSE(error.empty()) << ModeName(mode);
      EXPECT_NE(error.find(expect_substr), std::string::npos)
          << ModeName(mode) << ": " << error;
    }
  }

  TempFile file_{"malformed"};
  std::string bytes_;
};

TEST_F(MalformedSnapshotTest, TruncatedFileIsRejected) {
  for (size_t keep : {size_t{0}, size_t{4}, size_t{20}, bytes_.size() / 2,
                      bytes_.size() - 1}) {
    ExpectRejected(bytes_.substr(0, keep));
  }
}

TEST_F(MalformedSnapshotTest, BadMagicIsRejected) {
  std::string corrupt = bytes_;
  corrupt[0] = 'X';
  ExpectRejected(corrupt, "magic");
}

TEST_F(MalformedSnapshotTest, WrongVersionIsRejected) {
  // The reader knows one layout: the older versions 1 to 5 are as foreign
  // as a future one.
  for (uint32_t version : {1u, 2u, 3u, 4u, 5u, kSnapshotVersion + 7}) {
    std::string corrupt = bytes_;
    corrupt[8] = static_cast<char>(version);
    ExpectRejected(corrupt, "unsupported snapshot version");
  }
}

TEST_F(MalformedSnapshotTest, KindMismatchIsRejected) {
  // A graph snapshot is not an engine snapshot, and neither is a delta log.
  // A delta log's header carries its own version number; the kind is
  // checked first, so it is refused as a kind mismatch.
  TempFile delta("malformed_delta");
  std::string error;
  auto writer = DeltaWriter::Open(delta.path(), 1, 10, &error);
  ASSERT_NE(writer, nullptr) << error;
  ASSERT_TRUE(writer->Append({{0, 3}}, &error)) << error;
  writer.reset();
  for (const std::string& path : {file_.path(), delta.path()}) {
    for (SnapshotIoMode mode : kBothModes) {
      EXPECT_FALSE(
          LoadEngineSnapshot(path, {.io_mode = mode}, &error).has_value());
      EXPECT_NE(error.find("kind"), std::string::npos) << error;
    }
  }
  // Kind 3 is retired: a valid graph payload under that kind word (offset
  // 12: magic 8 + version 4) is refused by both loaders.
  TempFile retired("malformed_kind3");
  std::string kind3 = bytes_;
  const uint32_t retired_kind = 3;
  std::memcpy(&kind3[12], &retired_kind, sizeof(retired_kind));
  DumpFile(retired.path(), kind3);
  for (SnapshotIoMode mode : kBothModes) {
    LoadOptions options;
    options.io_mode = mode;
    EXPECT_FALSE(LoadGraphSnapshot(retired.path(), options, &error));
    EXPECT_NE(error.find("kind"), std::string::npos) << error;
    EXPECT_FALSE(LoadEngineSnapshot(retired.path(), options, &error));
    EXPECT_NE(error.find("kind"), std::string::npos) << error;
  }
}

TEST_F(MalformedSnapshotTest, CorruptPayloadFailsChecksum) {
  // Flip one bit in the middle of the payload; the CRC footer must catch it
  // even when the payload still decodes structurally.
  std::string corrupt = bytes_;
  corrupt[corrupt.size() / 2] ^= 0x01;
  ExpectRejected(corrupt);
}

TEST_F(MalformedSnapshotTest, OverstatedPayloadSizeIsRejected) {
  // The header's payload_size field (offset 16: magic 8 + version 4 +
  // kind 4) declares ~2^60 bytes; the reader must reject against the real
  // file size before attempting any allocation of that size.
  std::string corrupt = bytes_;
  const uint64_t huge = uint64_t{1} << 60;
  std::memcpy(&corrupt[16], &huge, sizeof(huge));
  ExpectRejected(corrupt, "payload size");
}

TEST_F(MalformedSnapshotTest, UnderstatedPayloadSizeIsRejected) {
  // Understating the payload length would leave payload bytes parsed as
  // the checksum footer; the size cross-check must catch it up front.
  std::string corrupt = bytes_;
  uint64_t declared = 0;
  std::memcpy(&declared, &corrupt[16], sizeof(declared));
  ASSERT_GT(declared, 0u);
  --declared;
  std::memcpy(&corrupt[16], &declared, sizeof(declared));
  ExpectRejected(corrupt, "payload size");
}

TEST_F(MalformedSnapshotTest, CorruptChecksumFooterIsRejected) {
  std::string corrupt = bytes_;
  corrupt[corrupt.size() - 1] ^= 0xFF;
  ExpectRejected(corrupt, "checksum");
}

TEST_F(MalformedSnapshotTest, HeaderOnlyFileWithHugePayloadSizeIsRejected) {
  // A 24-byte file (header, no footer) whose payload_size is crafted as
  // exactly `-(header+checksum)` mod 2^64: the reader's file-size
  // cross-check must not wrap into agreement and then die trying to
  // reserve ~2^64 bytes.
  std::string header_only = bytes_.substr(0, 24);
  const uint64_t wrap = ~uint64_t{0} - 7;  // 2^64 - 8 == 24 - 32 mod 2^64
  std::memcpy(&header_only[16], &wrap, sizeof(wrap));
  ExpectRejected(header_only, "truncated");
}

TEST_F(MalformedSnapshotTest, LabelCountOverflowIsRejected) {
  // num_labels = 0xFFFFFFFF must not wrap the `label_offsets.size() ==
  // num_labels + 1` structure check to "expected 0" and walk an empty
  // offsets array (checksum-valid payload, so only the structural
  // validation stands between this file and a crash).
  ByteSink sink;
  sink.WriteU32(0xFFFFFFFFu);  // num_labels
  OwnedOrBorrowedSpan<uint32_t> empty_u32;
  OwnedOrBorrowedSpan<uint64_t> zero_offsets(std::vector<uint64_t>{0});
  sink.WriteSpan<uint32_t>(empty_u32);     // labels (0 nodes)
  sink.WriteSpan<uint64_t>(zero_offsets);  // fwd_offsets = [0]
  sink.WriteSpan<uint32_t>(empty_u32);     // fwd_targets
  sink.WriteSpan<uint64_t>(zero_offsets);  // bwd_offsets = [0]
  sink.WriteSpan<uint32_t>(empty_u32);     // bwd_targets
  OwnedOrBorrowedSpan<uint64_t> empty_u64;
  sink.WriteSpan<uint64_t>(empty_u64);     // label_offsets (empty!)
  sink.WriteSpan<uint32_t>(empty_u32);     // label_nodes
  ASSERT_TRUE(WriteSnapshotFile(file_.path(), SnapshotKind::kGraph, sink));
  for (SnapshotIoMode mode : kBothModes) {
    std::string error;
    EXPECT_FALSE(LoadGraphSnapshot(file_.path(), {.io_mode = mode}, &error).has_value())
        << ModeName(mode);
    EXPECT_NE(error.find("inconsistent"), std::string::npos)
        << ModeName(mode) << ": " << error;
  }
}

// A FIFO cannot be mapped or seeked; the reader must fall back to the
// bounded streaming path and still load a valid snapshot end-to-end.
TEST_F(MalformedSnapshotTest, FifoStreamsViaReadFallback) {
  std::string fifo_path = file_.path() + ".fifo";
  ASSERT_EQ(::mkfifo(fifo_path.c_str(), 0600), 0) << std::strerror(errno);
  for (SnapshotIoMode mode : kBothModes) {
    // Feed the snapshot through the FIFO from a writer thread (a FIFO's
    // kernel buffer is smaller than the snapshot, so a blocking writer is
    // required).
    std::thread writer([&] {
      std::ofstream out(fifo_path, std::ios::binary);
      out.write(bytes_.data(), static_cast<std::streamsize>(bytes_.size()));
    });
    std::string error;
    auto loaded = LoadGraphSnapshot(fifo_path, {.io_mode = mode}, &error);
    writer.join();
    ASSERT_TRUE(loaded.has_value()) << ModeName(mode) << ": " << error;
    ExpectSameGraph(PaperExample::MakeGraph(), *loaded);
  }
  ::unlink(fifo_path.c_str());
}

TEST_F(MalformedSnapshotTest, FifoWithLyingPayloadSizeIsRejectedBounded) {
  // Through a FIFO the payload_size header cannot be cross-checked against
  // a file size; a corrupt ~2^60 value must hit the bounded chunk loop and
  // fail with `truncated` after the real bytes run out — never a giant
  // up-front allocation.
  std::string corrupt = bytes_;
  const uint64_t huge = uint64_t{1} << 60;
  std::memcpy(&corrupt[16], &huge, sizeof(huge));
  std::string fifo_path = file_.path() + ".fifo2";
  ASSERT_EQ(::mkfifo(fifo_path.c_str(), 0600), 0) << std::strerror(errno);
  std::thread writer([&] {
    std::ofstream out(fifo_path, std::ios::binary);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
  });
  std::string error;
  EXPECT_FALSE(LoadGraphSnapshot(fifo_path, {}, &error).has_value());
  writer.join();
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  ::unlink(fifo_path.c_str());
}

TEST(BflSnapshot, IntervalSizeMismatchIsRejected) {
  // A checksum-valid BFL image whose interval labels were built over a
  // different (smaller) condensation: every per-component array the cuts
  // index into would be too short, so Deserialize must reject the
  // structure instead of serving OOB reachability reads.
  Graph big = PaperExample::MakeGraph();
  Condensation cond_big(big);
  Graph small = Graph::FromEdges({0}, {});
  Condensation cond_small(small);
  IntervalLabels iv_small(cond_small);

  const uint32_t nc = cond_big.NumComponents();
  ASSERT_GT(nc, 1u);
  ByteSink sink;
  cond_big.Serialize(sink);
  iv_small.Serialize(sink);  // sizes disagree with cond_big
  sink.WriteU32(1);          // words_
  OwnedOrBorrowedSpan<uint64_t> labels(std::vector<uint64_t>(nc, 0));
  sink.WriteSpan<uint64_t>(labels);  // l_out
  sink.WriteSpan<uint64_t>(labels);  // l_in
  OwnedOrBorrowedSpan<uint32_t> hash(std::vector<uint32_t>(nc, 0));
  sink.WriteSpan<uint32_t>(hash);
  OwnedOrBorrowedSpan<uint64_t> pred_offsets(
      std::vector<uint64_t>(nc + 1, 0));
  sink.WriteSpan<uint64_t>(pred_offsets);
  OwnedOrBorrowedSpan<uint32_t> pred_targets;
  sink.WriteSpan<uint32_t>(pred_targets);

  ByteSource src(sink.data().data(), sink.size());
  EXPECT_EQ(BflIndex::Deserialize(src), nullptr);
  EXPECT_FALSE(src.ok());
  EXPECT_NE(src.error().find("inconsistent"), std::string::npos)
      << src.error();
}

TEST(CondensationSnapshot, NonTopologicalDagEdgeIsRejected) {
  // A hand-written two-component image whose only DAG edge does not go to a
  // larger id (first backward, then a self edge). Every reachability reader
  // prunes with "successors have larger ids", so the decoder must refuse it.
  for (const auto& [from, to] : std::vector<std::pair<uint32_t, uint32_t>>{
           {1, 0}, {0, 0}}) {
    std::vector<uint64_t> offsets = {0, 0, 0};
    for (uint32_t c = from + 1; c < offsets.size(); ++c) offsets[c] = 1;
    ByteSink sink;
    sink.WriteU32(2);  // components
    sink.WriteSpan<uint32_t>(std::vector<uint32_t>{0, 1});  // node -> comp
    sink.WriteSpan<uint8_t>(std::vector<uint8_t>{0, 0});    // cyclic
    sink.WriteSpan<uint32_t>(std::vector<uint32_t>{1, 1});  // sizes
    sink.WriteSpan<uint64_t>(offsets);
    sink.WriteSpan<uint32_t>(std::vector<uint32_t>{to});  // DAG targets
    sink.WriteSpan<uint32_t>(std::vector<uint32_t>{0, 1});  // topo order

    ByteSource src(sink.data().data(), sink.size());
    Condensation cond = Condensation::Deserialize(src);
    EXPECT_FALSE(src.ok()) << from << " -> " << to;
    EXPECT_NE(src.error().find("not topological"), std::string::npos)
        << src.error();
    EXPECT_EQ(cond.NumComponents(), 0u);
  }
}

// --------------------------------------------------------- malformed text

std::optional<Graph> ParseText(const std::string& text, std::string* error) {
  std::istringstream in(text);
  return ReadGraph(in, error);
}

TEST(ReadGraphValidation, EdgeToUndeclaredNodeFailsWithoutHeader) {
  std::string error;
  EXPECT_FALSE(ParseText("v 0 0\nv 1 1\ne 0 5\n", &error).has_value());
  EXPECT_NE(error.find("undeclared"), std::string::npos) << error;
}

TEST(ReadGraphValidation, EdgeToUndeclaredNodeFailsWithHeader) {
  std::string error;
  EXPECT_FALSE(
      ParseText("t 9 1\nv 0 0\nv 1 1\ne 0 5\n", &error).has_value());
  EXPECT_NE(error.find("undeclared"), std::string::npos) << error;
}

TEST(ReadGraphValidation, HeaderCountMismatchFails) {
  std::string error;
  EXPECT_FALSE(ParseText("t 3 1\nv 0 0\nv 1 1\ne 0 1\n", &error).has_value());
  EXPECT_NE(error.find("node"), std::string::npos) << error;
  EXPECT_FALSE(ParseText("t 2 2\nv 0 0\nv 1 1\ne 0 1\n", &error).has_value());
  EXPECT_NE(error.find("edge"), std::string::npos) << error;
}

TEST(ReadGraphValidation, DuplicateOrMalformedHeaderFails) {
  std::string error;
  EXPECT_FALSE(ParseText("t 1 0\nt 1 0\nv 0 0\n", &error).has_value());
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
  EXPECT_FALSE(ParseText("t one two\nv 0 0\n", &error).has_value());
}

TEST(ReadGraphValidation, NonDenseAndUnknownTagsStillFail) {
  std::string error;
  EXPECT_FALSE(ParseText("v 1 0\n", &error).has_value());
  EXPECT_FALSE(ParseText("v 0 0\nx 1 2\n", &error).has_value());
  EXPECT_FALSE(ParseText("v 0 zero\n", &error).has_value());
}

TEST(ReadGraphValidation, ValidInputStillParses) {
  std::string error;
  auto g = ParseText("t 2 1\nv 0 0\nv 1 1\ne 0 1\n# comment\n", &error);
  ASSERT_TRUE(g.has_value()) << error;
  EXPECT_EQ(g->NumNodes(), 2u);
  EXPECT_EQ(g->NumEdges(), 1u);
}

}  // namespace
}  // namespace rigpm
