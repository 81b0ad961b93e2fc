// Persistence subsystem tests (storage/snapshot.h, util/serde.h): graph
// round trips and the label index a load derives, warm-start engine
// equivalence under both IO modes (zero-copy mmap and read) and batch
// thread counts, header inspection, refusal of paths that are not regular
// files, and rejection of malformed input for the binary snapshot reader,
// the graph image decoder and the text graph reader. Every malformed-file
// check runs under both IO modes — corrupt mapped files must be rejected
// before any decode, exactly like corrupt read ones.

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
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
#include "query/pattern_parser.h"
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

// ------------------------------------------------------------- checksum

TEST(Checksum64, KeepsItsDigestsForFixedInputs) {
  // Snapshot footers and delta-log chains store these digests, so they
  // must never change: every length class (empty, short, one 32-byte block,
  // a block and a tail, many blocks), seeded and unseeded.
  struct Digest {
    size_t n;
    uint64_t unseeded;
    uint64_t seeded;  // seed 0x1234abcd5678ef01
  };
  constexpr Digest kDigests[] = {
      {0, 0xaa8a3e25186a2c44ull, 0x46b7695ab3f3696full},
      {1, 0xf00bff476e18bc35ull, 0x999753f51c028f44ull},
      {31, 0x279ef18cda58b47aull, 0xd4d96def03ab3c3full},
      {32, 0xb2f91f93f94e3253ull, 0x3fa7bb644989de2dull},
      {33, 0x80d20ac5b6a34c82ull, 0x5173cf6b89dc84ebull},
      {100000, 0x610aa6fbed412305ull, 0xad1eb82c75ff09e4ull},
  };
  std::vector<uint8_t> data(100000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  for (const Digest& d : kDigests) {
    EXPECT_EQ(Checksum64(data.data(), d.n), d.unseeded) << d.n << " bytes";
    EXPECT_EQ(Checksum64(data.data(), d.n, 0x1234abcd5678ef01ull), d.seeded)
        << d.n << " bytes, seeded";
  }
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

// The engine snapshot is the one snapshot kind that holds a graph.
bool SaveGraph(const Graph& g, const std::string& path,
               std::string* error = nullptr) {
  GmEngine engine(g);
  return SaveEngineSnapshot(engine, path, error);
}

// The graph of an engine snapshot loaded per `mode`; nullopt (with
// *error) if it does not load.
std::optional<Graph> LoadGraph(const std::string& path, SnapshotIoMode mode,
                               std::string* error = nullptr) {
  auto warm = LoadEngineSnapshot(path, {.io_mode = mode}, error);
  if (!warm.has_value()) return std::nullopt;
  warm->engine.reset();  // references the graph; drop it first
  return std::move(*warm->graph);
}

TEST(GraphSnapshot, PaperExampleRoundTripsUnderBothIoModes) {
  Graph g = PaperExample::MakeGraph();
  TempFile file("graph_paper");
  std::string error;
  ASSERT_TRUE(SaveGraph(g, file.path(), &error)) << error;
  for (SnapshotIoMode mode : kBothModes) {
    auto loaded = LoadGraph(file.path(), mode, &error);
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
      ASSERT_TRUE(SaveGraph(g, file.path(), &error)) << error;
      for (SnapshotIoMode mode : kBothModes) {
        auto loaded = LoadGraph(file.path(), mode, &error);
        ASSERT_TRUE(loaded.has_value()) << ModeName(mode) << ": " << error;
        ExpectSameGraph(g, *loaded);
      }
    }
  }
}

TEST(GraphSnapshot, LoadedLabelBitmapsAreTheNodesOfEachLabel) {
  // A load derives the label index instead of reading it, so it is checked
  // against a scan of the labels, not against the index the saved graph
  // built: every LabelBitmap(a) must be exactly the nodes v with
  // Label(v) == a, and LabelCount(a) their number.
  // Two labels over 70k nodes give bitset containers in the first 2^16
  // chunk and arrays in the second; 40 labels over 3k nodes give arrays.
  for (const auto& [nodes, labels] : {std::pair{70000u, 2u},
                                      std::pair{3000u, 40u}}) {
    GeneratorOptions opts;
    opts.num_nodes = nodes;
    opts.num_edges = uint64_t{nodes} * 2;
    opts.num_labels = labels;
    opts.seed = nodes;
    for (const Graph& g : {GenerateErdosRenyi(opts), GeneratePowerLaw(opts),
                           GenerateRandomDag(opts)}) {
      TempFile file("graph_labels");
      std::string error;
      ASSERT_TRUE(SaveGraph(g, file.path(), &error)) << error;
      for (SnapshotIoMode mode : kBothModes) {
        auto loaded = LoadGraph(file.path(), mode, &error);
        ASSERT_TRUE(loaded.has_value()) << ModeName(mode) << ": " << error;
        ASSERT_EQ(loaded->NumLabels(), g.NumLabels());
        std::vector<std::vector<NodeId>> labelled(loaded->NumLabels());
        for (NodeId v = 0; v < loaded->NumNodes(); ++v) {
          labelled[loaded->Label(v)].push_back(v);
        }
        for (LabelId a = 0; a < loaded->NumLabels(); ++a) {
          EXPECT_EQ(loaded->LabelBitmap(a).ToVector(), labelled[a])
              << ModeName(mode) << ", " << nodes << " nodes, label " << a;
          EXPECT_EQ(loaded->LabelCount(a), labelled[a].size());
        }
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
  ASSERT_TRUE(SaveGraph(g, file.path()));
  std::optional<Graph> loaded = LoadGraph(file.path(), SnapshotIoMode::kMmap);
  ASSERT_TRUE(loaded.has_value());
  std::remove(file.path().c_str());  // mapping survives the unlink

  Graph moved = std::move(*loaded);
  loaded.reset();
  ExpectSameGraph(g, moved);
}

// The heap the label bitmaps of `g` hold.
size_t LabelBitmapBytes(const Graph& g) {
  size_t bytes = 0;
  for (LabelId a = 0; a < g.NumLabels(); ++a) {
    bytes += g.LabelBitmap(a).MemoryBytes();
  }
  return bytes;
}

TEST(GraphSnapshot, MmapLoadOwnsOnlyItsLabelBitmaps) {
  // The daemon RSS accounting contract: after an mmap load the graph's
  // labels, CSR arrays and label offsets stay *inside the mapping*, so the
  // graph's owned heap is exactly its label bitmaps, which the load
  // rebuilds; a streaming read owns the arrays too. Reads change neither.
  GeneratorOptions opts;
  opts.num_nodes = 3000;
  opts.num_edges = 40000;
  opts.num_labels = 4;
  opts.seed = 5;
  Graph g = GenerateErdosRenyi(opts);
  TempFile file("graph_lazy");
  std::string error;
  ASSERT_TRUE(SaveGraph(g, file.path(), &error)) << error;

  auto mapped = LoadGraph(file.path(), SnapshotIoMode::kMmap, &error);
  ASSERT_TRUE(mapped.has_value()) << error;
  auto slurped = LoadGraph(file.path(), SnapshotIoMode::kRead, &error);
  ASSERT_TRUE(slurped.has_value()) << error;

  EXPECT_EQ(mapped->OwnedHeapBytes(), LabelBitmapBytes(*mapped));
  const size_t csr_bytes = 2 * slurped->NumEdges() * sizeof(NodeId);
  EXPECT_GT(slurped->OwnedHeapBytes(), LabelBitmapBytes(*slurped) + csr_bytes);

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
  if (!SaveGraph(g, file.path(), &error)) {
    ADD_FAILURE() << error;
    return std::nullopt;
  }
  auto mapped = LoadGraph(file.path(), SnapshotIoMode::kMmap, &error);
  if (!mapped.has_value()) {
    ADD_FAILURE() << error;
    return std::nullopt;
  }
  return mapped->OwnedHeapBytes();
}

TEST(GraphSnapshot, MmapLoadedHeapGrowsAtMostTwoBytesPerNode) {
  // A mapped graph borrows its labels and CSR rows, whose size grows with
  // the edges; it owns only its label bitmaps, which hold at most 2 bytes
  // per node (an array container 2 bytes per value, a bitset 8 KiB for
  // more than 4096). Ten times the nodes and edges over the same labels
  // (all ids in one 2^16 chunk, so as many containers) cost at most 2
  // bytes of heap per added node.
  const std::optional<size_t> small = MappedGraphHeapBytes(3000);
  const std::optional<size_t> large = MappedGraphHeapBytes(30000);
  ASSERT_TRUE(small.has_value() && large.has_value());
  EXPECT_LE(*large, *small + 2 * (30000 - 3000));
}

TEST(GraphSnapshot, InspectReportsHeaderWithoutDecoding) {
  Graph g = PaperExample::MakeGraph();
  TempFile file("graph_inspect");
  ASSERT_TRUE(SaveGraph(g, file.path()));
  std::string error;
  auto info = InspectSnapshot(file.path(), &error);
  ASSERT_TRUE(info.has_value()) << error;
  EXPECT_EQ(info->version, kSnapshotVersion);
  EXPECT_EQ(info->kind_value, static_cast<uint32_t>(SnapshotKind::kEngine));
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
  ASSERT_TRUE(SaveGraph(g, file.path()));
  auto loaded = LoadGraph(file.path(), DefaultSnapshotIoMode());
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
    ASSERT_TRUE(SaveGraph(PaperExample::MakeGraph(), file_.path()));
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
      EXPECT_FALSE(LoadEngineSnapshot(file_.path(), {.io_mode = mode}, &error)
                       .has_value())
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
  // Every proper prefix: the whole file is checked before any decode.
  for (size_t keep = 0; keep < bytes_.size(); ++keep) {
    ExpectRejected(bytes_.substr(0, keep));
  }
}

TEST_F(MalformedSnapshotTest, BadMagicIsRejected) {
  std::string corrupt = bytes_;
  corrupt[0] = 'X';
  ExpectRejected(corrupt, "magic");
}

TEST_F(MalformedSnapshotTest, WrongVersionIsRejected) {
  // The reader knows one layout: the older versions 1 to 7 are as foreign
  // as a future one.
  for (uint32_t version : {1u, 2u, 3u, 4u, 5u, 6u, 7u, kSnapshotVersion + 7}) {
    std::string corrupt = bytes_;
    corrupt[8] = static_cast<char>(version);
    ExpectRejected(corrupt, "unsupported snapshot version");
  }
}

TEST_F(MalformedSnapshotTest, KindMismatchIsRejected) {
  // A delta log is not an engine snapshot. Its header carries its own
  // version number; the kind is checked first, so it is refused as a kind
  // mismatch.
  TempFile delta("malformed_delta");
  std::string error;
  auto writer = DeltaWriter::Open(delta.path(), 1, 10, &error);
  ASSERT_NE(writer, nullptr) << error;
  ASSERT_TRUE(writer->Append({{0, 3}}, &error)) << error;
  writer.reset();
  for (SnapshotIoMode mode : kBothModes) {
    EXPECT_FALSE(LoadEngineSnapshot(delta.path(), {.io_mode = mode}, &error)
                     .has_value());
    EXPECT_NE(error.find("kind"), std::string::npos) << error;
  }
  // Kinds 1 (graph only) and 3 are retired: a valid engine payload under
  // either kind word (offset 12: magic 8 + version 4) is refused.
  for (uint32_t retired_kind : {1u, 3u}) {
    std::string corrupt = bytes_;
    std::memcpy(&corrupt[12], &retired_kind, sizeof(retired_kind));
    ExpectRejected(corrupt, "kind");
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

TEST_F(MalformedSnapshotTest, EveryByteFlipIsRejected) {
  // A single-byte change anywhere, in the head, the payload or the footer,
  // is refused before any decode.
  for (size_t at = 0; at < bytes_.size(); ++at) {
    std::string flipped = bytes_;
    flipped[at] = static_cast<char>(flipped[at] ^ 0xFF);
    ExpectRejected(flipped);
  }
}

// Snapshot and delta paths that name a directory or a FIFO are refused as
// "not a regular file" by every reader under both IO modes, and nothing
// blocks in the open of the FIFO (each check runs in a child that is
// killed after a few seconds).
TEST(NonRegularSnapshotPath, DirectoryAndFifoAreRefusedWithoutBlocking) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("rigpm_nonregular_" + std::to_string(::getpid())))
          .string();
  ASSERT_TRUE(std::filesystem::create_directory(dir));
  const std::string snap = dir + "/g.snap";
  const std::string fifo = dir + "/fifo";
  ASSERT_TRUE(SaveGraph(PaperExample::MakeGraph(), snap));
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);

  auto refused = [](const char* what, bool loaded, const std::string& error) {
    if (!loaded && error.find("not a regular file") != std::string::npos) {
      return true;
    }
    std::fprintf(stderr, "%s: %s\n", what,
                 loaded ? "loaded" : error.c_str());
    return false;
  };
  for (const std::string& path : {dir, fifo}) {
    EXPECT_TRUE(rigpm::testing::ChildReturnsTrueWithin(
        [&] {
          bool all = true;
          std::string error;
          all &= refused("inspect", InspectSnapshot(path, &error).has_value(),
                         error);
          for (SnapshotIoMode mode : kBothModes) {
            error.clear();
            all &= refused(
                "snapshot path",
                LoadEngineSnapshot(path, {.io_mode = mode}, &error).has_value(),
                error);
            error.clear();
            all &= refused("delta path",
                           LoadEngineSnapshot(snap,
                                              {.io_mode = mode,
                                               .delta_path = path,
                                               .delta_io = mode},
                                              &error)
                               .has_value(),
                           error);
          }
          return all;
        },
        /*seconds=*/5))
        << path;
  }
  std::filesystem::remove_all(dir);
}

// A sparse 64 GiB file behind a valid engine-snapshot head that declares
// the rest as payload: under a 4 GiB address-space limit neither mode can
// hold it, and both refuse it instead of ending the process. The sanitizers
// reserve far more address space than that limit, so they skip this test.
TEST(HugeSnapshotFile, IsRefusedWhenItCannotBeHeld) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer builds cannot run under an address-space limit";
#endif
  constexpr uint64_t kFileBytes = uint64_t{64} << 30;
  TempFile file("huge");
  ByteSink head;
  EncodeContainerHead(
      head, {.version = kSnapshotVersion,
             .kind_value = static_cast<uint32_t>(SnapshotKind::kEngine),
             .word = kFileBytes - kContainerHeadBytes - sizeof(uint64_t)});
  DumpFile(file.path(), std::string(head.data().begin(), head.data().end()));
  ASSERT_EQ(::truncate(file.path().c_str(), static_cast<off_t>(kFileBytes)),
            0)
      << std::strerror(errno);
  for (SnapshotIoMode mode : kBothModes) {
    EXPECT_TRUE(rigpm::testing::ChildReturnsTrueWithin(
        [&] {
          const rlimit limit = {uint64_t{4} << 30, uint64_t{4} << 30};
          if (::setrlimit(RLIMIT_AS, &limit) != 0) return false;
          std::string error;
          if (!LoadEngineSnapshot(file.path(), {.io_mode = mode}, &error)
                   .has_value() &&
              error.find("cannot allocate") != std::string::npos) {
            return true;
          }
          std::fprintf(stderr, "%s\n",
                       error.empty() ? "loaded" : error.c_str());
          return false;
        },
        /*seconds=*/10))
        << ModeName(mode);
  }
}

// A label-index bitmap in the layout snapshots used to store: a container
// count of one, then the container (key 0, array kind, cardinality),
// padding and its sorted low bits.
void WriteStoredLabelBitmap(ByteSink& sink, std::vector<uint16_t> lows) {
  sink.WriteU32(1);
  sink.WriteU16(0);
  sink.WriteU8(0);
  sink.WriteU32(static_cast<uint32_t>(lows.size()));
  sink.PadTo8();
  sink.WriteRaw(lows.data(), lows.size() * sizeof(uint16_t));
}

// Writes a checksum-valid engine snapshot of the graph 0:a->1:b, 0:a->2:b
// (a = label 0, b = label 1) whose graph image has the version-6 layout:
// labels, both CSR directions and label offsets, then the label index —
// the sorted label lists and one bitmap per label, I_b's holding
// `label_b` — and then the BFL index of the graph.
void WriteSnapshotWithStoredLabelIndex(const std::string& path,
                                       std::vector<uint16_t> label_b) {
  ByteSink sink;
  sink.WriteU32(2);                                              // labels
  sink.WriteSpan<LabelId>(std::vector<LabelId>{0, 1, 1});
  sink.WriteSpan<uint64_t>(std::vector<uint64_t>{0, 2, 2, 2});  // forward
  sink.WriteSpan<NodeId>(std::vector<NodeId>{1, 2});
  sink.WriteSpan<uint64_t>(std::vector<uint64_t>{0, 0, 1, 2});  // backward
  sink.WriteSpan<NodeId>(std::vector<NodeId>{0, 0});
  sink.WriteSpan<uint64_t>(std::vector<uint64_t>{0, 1, 3});     // offsets
  sink.WriteSpan<NodeId>(std::vector<NodeId>{0, 1, 2});         // I_a, I_b
  WriteStoredLabelBitmap(sink, {0});
  WriteStoredLabelBitmap(sink, std::move(label_b));
  BflIndex(Graph::FromEdges({0, 1, 1}, {{0, 1}, {0, 2}})).Serialize(sink);
  ASSERT_TRUE(WriteSnapshotFile(path, SnapshotKind::kEngine, sink));
}

// The file at `path` must be refused, or load and answer from the labels:
// (a:0)->(b:1) and (b:1) both have 2 occurrences.
void ExpectRefusedOrAnsweredFromLabels(const std::string& path) {
  for (SnapshotIoMode mode : kBothModes) {
    std::string error;
    auto warm = LoadEngineSnapshot(path, {.io_mode = mode}, &error);
    if (!warm.has_value()) {
      EXPECT_FALSE(error.empty()) << ModeName(mode);
      continue;
    }
    for (const char* pattern : {"(a:0)->(b:1)", "(b:1)"}) {
      auto q = ParsePattern(pattern, &error);
      ASSERT_TRUE(q.has_value()) << error;
      EXPECT_EQ(warm->engine->Evaluate(*q).num_occurrences, 2u)
          << ModeName(mode) << ": " << pattern;
    }
  }
}

TEST(StoredLabelIndexSnapshot, BitmapNamingANodePastTheGraphIsHarmless) {
  // I_b names node 40,000 of a 3-node graph: trusting it reads the CSR
  // rows of a node that does not exist.
  TempFile file("stored_index_far");
  WriteSnapshotWithStoredLabelIndex(file.path(), {1, 2, 40000});
  ExpectRefusedOrAnsweredFromLabels(file.path());
}

TEST(StoredLabelIndexSnapshot, BitmapNamingAWronglyLabelledNodeIsHarmless) {
  // I_b names node 0, whose label is a: trusting it answers (b:1) with 3.
  TempFile file("stored_index_wrong");
  WriteSnapshotWithStoredLabelIndex(file.path(), {0, 1, 2});
  ExpectRefusedOrAnsweredFromLabels(file.path());
}

// ------------------------------------------------------ malformed images

// Decodes a hand-built graph image that must be refused, with
// `expect_substr` in the error and an empty graph.
void ExpectGraphImageRefused(const ByteSink& sink, const char* expect_substr) {
  ByteSource src(sink.data().data(), sink.size());
  Graph g = Graph::Deserialize(src);
  EXPECT_FALSE(src.ok());
  EXPECT_NE(src.error().find(expect_substr), std::string::npos)
      << src.error();
  EXPECT_EQ(g.NumNodes(), 0u);
}

// The image of an edgeless graph labelled `labels` under an alphabet of
// `num_labels` labels, whose label offsets are `label_offsets`.
ByteSink EdgelessGraphImage(uint32_t num_labels, std::vector<LabelId> labels,
                            std::vector<uint64_t> label_offsets) {
  ByteSink sink;
  sink.WriteU32(num_labels);
  sink.WriteSpan<LabelId>(labels);
  const std::vector<uint64_t> zero_offsets(labels.size() + 1, 0);
  sink.WriteSpan<uint64_t>(zero_offsets);  // forward
  sink.WriteSpan<NodeId>(std::vector<NodeId>{});
  sink.WriteSpan<uint64_t>(zero_offsets);  // backward
  sink.WriteSpan<NodeId>(std::vector<NodeId>{});
  sink.WriteSpan<uint64_t>(label_offsets);
  return sink;
}

TEST(GraphImage, LabelCountOverflowIsRejected) {
  // num_labels = 0xFFFFFFFF must not wrap the `label_offsets.size() ==
  // num_labels + 1` structure check to "expected 0" and walk an empty
  // offsets array, nor size anything by the label count.
  ExpectGraphImageRefused(EdgelessGraphImage(0xFFFFFFFFu, {}, {}),
                          "inconsistent");
}

TEST(GraphImage, LabelOutsideTheAlphabetIsRejected) {
  ExpectGraphImageRefused(EdgelessGraphImage(2, {0, 2, 1}, {0, 1, 3}),
                          "label out of range");
}

TEST(GraphImage, LabelOffsetsMustCountTheLabels) {
  // Two nodes carry label 1, but the offsets declare one.
  ExpectGraphImageRefused(EdgelessGraphImage(2, {0, 1, 1}, {0, 2, 3}),
                          "label counts");
  // An alphabet the labels do not use up is fine, trailing labels empty.
  ByteSink sink = EdgelessGraphImage(4, {0, 1, 1}, {0, 1, 3, 3, 3});
  ByteSource src(sink.data().data(), sink.size());
  Graph g = Graph::Deserialize(src);
  ASSERT_TRUE(src.ok()) << src.error();
  EXPECT_EQ(g.NumLabels(), 4u);
  EXPECT_EQ(g.LabelBitmap(1).ToVector(), (std::vector<NodeId>{1, 2}));
  EXPECT_TRUE(g.LabelBitmap(3).Empty());
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
    sink.WriteSpan<uint64_t>(offsets);
    sink.WriteSpan<uint32_t>(std::vector<uint32_t>{to});  // DAG targets

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

TEST(ReadGraphValidation, HugeHeaderCountsAllocateNothing) {
  // The header's counts are checked against the records, never reserved.
  std::string error;
  EXPECT_FALSE(ParseText("t 100000000000 0\n", &error).has_value());
  EXPECT_NE(error.find("header declares"), std::string::npos) << error;
}

TEST(ReadGraphValidation, LabelWithoutRoomForTheLabelCountFails) {
  // NumLabels() is the largest label plus one, so 4294967295 cannot be a
  // label; the error names the line.
  std::string error;
  EXPECT_FALSE(ParseText("v 0 1\nv 1 4294967295\n", &error).has_value());
  EXPECT_NE(error.find("out of range at line 2"), std::string::npos) << error;
}

TEST(ReadGraphValidation, LabelPast32BitsFailsInsteadOfWrapping) {
  // 4294967296 must not wrap to label 0.
  std::string error;
  EXPECT_FALSE(ParseText("v 0 4294967296\n", &error).has_value());
  EXPECT_NE(error.find("out of range at line 1"), std::string::npos) << error;
}

TEST(ReadGraphValidation, HugeSparseLabelIsRefusedBeforeAllocating) {
  // The label index takes about 40 bytes per label id up to the largest, so
  // a label must be below max(node count, 65536); 4000000000 on a two-node
  // graph would ask for about 160 GB.
  std::string error;
  EXPECT_FALSE(ParseText("v 0 0\nv 1 4000000000\n", &error).has_value());
  EXPECT_NE(error.find("label 4000000000 out of range at line 2"),
            std::string::npos)
      << error;
  // The 65536 floor: a one-node graph may use label 65535, and a two-node
  // graph may not use 65536.
  auto g = ParseText("v 0 65535\n", &error);
  ASSERT_TRUE(g.has_value()) << error;
  EXPECT_EQ(g->NumLabels(), 65536u);
  EXPECT_FALSE(ParseText("v 0 0\nv 1 65536\n", &error).has_value());
  EXPECT_NE(error.find("label 65536 out of range at line 2"),
            std::string::npos)
      << error;
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
