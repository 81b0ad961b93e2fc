// Randomized differential suite for the compressed bitmap (bitmap/bitmap.h):
// every operation is checked against a std::set<uint32_t> oracle across
// value distributions engineered to sit on the container-kind boundary — the
// array<->bitset edge at kArrayCapacity — plus clustered and chunk-edge (low
// bits 0x0000/0xFFFF) shapes and cross-kind operand pairings. Every result is
// also compared by == with Bitmap::FromSorted of the oracle's values, whose
// containers have the kind their cardinality fixes; == compares payloads by
// kind, so a kernel that leaves a container of the wrong kind fails here. A
// final group covers graph snapshot round trips under both snapshot IO
// modes.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bitmap/bitmap.h"
#include "engine/gm_engine.h"
#include "graph/generators.h"
#include "storage/snapshot.h"

namespace rigpm {
namespace {

constexpr SnapshotIoMode kBothModes[] = {SnapshotIoMode::kMmap,
                                         SnapshotIoMode::kRead};

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

// ------------------------------------------------------ value generators

// Distributions straddling the representation boundary. Values are the low
// 16 bits; Materialize() places them into one or more chunks.
enum class Dist {
  kEmpty,
  kSingleton,
  kChunkEdges,        // 0x0000, 0x0001, 0xFFFE, 0xFFFF
  kSparseArray,       // ~200 scattered values
  kArrayCapacity,     // exactly kArrayCapacity values (promotion edge)
  kArrayCapacityPlus, // kArrayCapacity + 1 (just past the edge)
  kDenseBitset,       // ~20000 scattered values
  kFullChunk,         // all 65536 values
  kFewLongRuns,       // 8 ranges of 2000 consecutive values (bitset)
  kClusteredPairs,    // 100 pairs of consecutive values (array)
  kClusteredTriples,  // 100 triples of consecutive values (array)
  kAlternatingBits,   // every other value (dense bitset)
};

constexpr Dist kAllDists[] = {
    Dist::kEmpty,          Dist::kSingleton,     Dist::kChunkEdges,
    Dist::kSparseArray,    Dist::kArrayCapacity, Dist::kArrayCapacityPlus,
    Dist::kDenseBitset,    Dist::kFullChunk,     Dist::kFewLongRuns,
    Dist::kClusteredPairs, Dist::kClusteredTriples, Dist::kAlternatingBits,
};

const char* DistName(Dist d) {
  switch (d) {
    case Dist::kEmpty: return "empty";
    case Dist::kSingleton: return "singleton";
    case Dist::kChunkEdges: return "chunk_edges";
    case Dist::kSparseArray: return "sparse_array";
    case Dist::kArrayCapacity: return "array_capacity";
    case Dist::kArrayCapacityPlus: return "array_capacity_plus";
    case Dist::kDenseBitset: return "dense_bitset";
    case Dist::kFullChunk: return "full_chunk";
    case Dist::kFewLongRuns: return "few_long_runs";
    case Dist::kClusteredPairs: return "clustered_pairs";
    case Dist::kClusteredTriples: return "clustered_triples";
    case Dist::kAlternatingBits: return "alternating_bits";
  }
  return "?";
}

std::vector<uint16_t> LowBits(Dist d, std::mt19937_64& rng) {
  std::uniform_int_distribution<uint32_t> u16(0, 0xFFFF);
  std::set<uint16_t> out;
  switch (d) {
    case Dist::kEmpty:
      break;
    case Dist::kSingleton:
      out.insert(static_cast<uint16_t>(u16(rng)));
      break;
    case Dist::kChunkEdges:
      out = {0x0000, 0x0001, 0xFFFE, 0xFFFF};
      break;
    case Dist::kSparseArray:
      while (out.size() < 200) out.insert(static_cast<uint16_t>(u16(rng)));
      break;
    case Dist::kArrayCapacity:
      while (out.size() < Bitmap::kArrayCapacity) {
        out.insert(static_cast<uint16_t>(u16(rng)));
      }
      break;
    case Dist::kArrayCapacityPlus:
      while (out.size() < Bitmap::kArrayCapacity + 1) {
        out.insert(static_cast<uint16_t>(u16(rng)));
      }
      break;
    case Dist::kDenseBitset:
      while (out.size() < 20000) out.insert(static_cast<uint16_t>(u16(rng)));
      break;
    case Dist::kFullChunk:
      for (uint32_t v = 0; v <= 0xFFFF; ++v) {
        out.insert(static_cast<uint16_t>(v));
      }
      break;
    case Dist::kFewLongRuns:
      for (uint32_t r = 0; r < 8; ++r) {
        uint32_t start = r * 8000 + u16(rng) % 1000;
        for (uint32_t i = 0; i < 2000; ++i) {
          out.insert(static_cast<uint16_t>(start + i));
        }
      }
      break;
    case Dist::kClusteredPairs:
      for (uint32_t r = 0; r < 100; ++r) {
        out.insert(static_cast<uint16_t>(r * 100));
        out.insert(static_cast<uint16_t>(r * 100 + 1));
      }
      break;
    case Dist::kClusteredTriples:
      for (uint32_t r = 0; r < 100; ++r) {
        out.insert(static_cast<uint16_t>(r * 100));
        out.insert(static_cast<uint16_t>(r * 100 + 1));
        out.insert(static_cast<uint16_t>(r * 100 + 2));
      }
      break;
    case Dist::kAlternatingBits:
      for (uint32_t v = 0; v <= 0xFFFF; v += 2) {
        out.insert(static_cast<uint16_t>(v));
      }
      break;
  }
  return {out.begin(), out.end()};
}

// Spreads one distribution across `chunks` chunks starting at `base_chunk`.
std::set<uint32_t> Materialize(Dist d, uint32_t base_chunk, uint32_t chunks,
                               std::mt19937_64& rng) {
  std::set<uint32_t> out;
  for (uint32_t c = 0; c < chunks; ++c) {
    for (uint16_t low : LowBits(d, rng)) {
      out.insert(((base_chunk + c) << 16) | low);
    }
  }
  return out;
}

Bitmap FromSet(const std::set<uint32_t>& s) {
  return Bitmap::FromSorted(std::vector<uint32_t>(s.begin(), s.end()));
}

// ------------------------------------------------------------ the oracle

// `got` must hold exactly `want`, and each of its containers must have the
// kind its cardinality fixes: FromSorted builds every container in that
// kind, and == compares payloads by kind, so a container of the wrong kind
// makes the two differ.
void ExpectMatches(const Bitmap& got, const std::set<uint32_t>& want,
                   const std::string& what) {
  const std::vector<uint32_t> values(want.begin(), want.end());
  EXPECT_EQ(got.Cardinality(), want.size()) << what;
  EXPECT_EQ(got.ToVector(), values) << what;
  EXPECT_EQ(got, Bitmap::FromSorted(values)) << what << " (kinds)";
}

// Runs the full operation matrix of one (a, b) pair against the oracle.
void DifferentialCheck(const Bitmap& a, const Bitmap& b,
                       const std::set<uint32_t>& ra,
                       const std::set<uint32_t>& rb, const std::string& tag) {
  std::set<uint32_t> or_ref;
  std::set_union(ra.begin(), ra.end(), rb.begin(), rb.end(),
                 std::inserter(or_ref, or_ref.begin()));

  ExpectMatches(a, ra, tag + " identity(a)");
  ExpectMatches(Bitmap::Or(a, b), or_ref, tag + " or");
  EXPECT_EQ(a == b, ra == rb) << tag;
  Bitmap c = a;
  c.OrWith(b);
  ExpectMatches(c, or_ref, tag + " orwith");

  // The intersection, whichever operand drives and however often one is
  // listed; its output vector is replaced, not appended to.
  std::vector<uint32_t> and_values;
  std::set_intersection(ra.begin(), ra.end(), rb.begin(), rb.end(),
                        std::back_inserter(and_values));
  std::vector<uint32_t> out = {7};
  const Bitmap* ab[] = {&a, &b};
  Bitmap::AndManyInto(ab, &out);
  EXPECT_EQ(out, and_values) << tag << " and_many";
  const Bitmap* baa[] = {&b, &a, &a};
  Bitmap::AndManyInto(baa, &out);
  EXPECT_EQ(out, and_values) << tag << " and_many_rev";

  // ForEach visits exactly the oracle's values in order.
  std::vector<uint32_t> seen;
  a.ForEach([&seen](uint32_t v) { seen.push_back(v); });
  EXPECT_EQ(seen, std::vector<uint32_t>(ra.begin(), ra.end())) << tag;
}

// ------------------------------------------- owned x owned, all pairings

TEST(BitmapDifferential, AllDistributionPairings) {
  std::mt19937_64 rng(2024);
  for (Dist da : kAllDists) {
    for (Dist db : kAllDists) {
      // Overlapping chunk ranges: a in chunks [0, 2), b in chunks [1, 3),
      // so the pair exercises disjoint-chunk and shared-chunk paths at once.
      std::set<uint32_t> ra = Materialize(da, 0, 2, rng);
      std::set<uint32_t> rb = Materialize(db, 1, 2, rng);
      Bitmap a = FromSet(ra);
      Bitmap b = FromSet(rb);
      DifferentialCheck(a, b, ra, rb,
                        std::string(DistName(da)) + " x " + DistName(db));
    }
  }
}

// ------------------------------------------------- mutation at the edges

TEST(BitmapDifferential, MutationSequenceAcrossPromotionEdges) {
  // Random add walk whose cardinality crosses kArrayCapacity in each of two
  // chunks, comparing with the oracle after every step, so a promotion that
  // leaves the wrong kind fails at the step that made it. One add in six
  // repeats a present value and must change nothing.
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<uint32_t> val(0, 0x1FFFF);
  std::uniform_int_distribution<int> coin(0, 5);
  Bitmap b;
  std::set<uint32_t> ref;
  const size_t target = 2 * Bitmap::kArrayCapacity + 1024;
  for (uint32_t step = 0; ref.size() < target; ++step) {
    uint32_t v = val(rng);
    if (coin(rng) == 0 && !ref.empty()) {
      auto it = ref.lower_bound(v);
      v = it == ref.end() ? *ref.begin() : *it;
    }
    b.Add(v);
    ref.insert(v);
    ASSERT_EQ(b, FromSet(ref)) << "step " << step;
  }
  // Both chunks crossed the edge.
  const auto low_chunk = static_cast<size_t>(
      std::distance(ref.begin(), ref.lower_bound(1u << 16)));
  EXPECT_GT(low_chunk, Bitmap::kArrayCapacity);
  EXPECT_GT(ref.size() - low_chunk, Bitmap::kArrayCapacity);
  ExpectMatches(b, ref, "mutation walk");
  // Spot-check membership after the walk.
  for (int i = 0; i < 1000; ++i) {
    uint32_t v = val(rng);
    EXPECT_EQ(b.Contains(v), ref.count(v) > 0) << v;
  }
}

// ----------------------------------------------- snapshot-layout trips

TEST(BitmapDifferential, GraphSnapshotRoundTrips) {
  // An engine snapshot's graph loads back row-for-row and
  // label-bitmap-for-bitmap, and re-saving the loaded (possibly borrowed)
  // engine round-trips again, under both IO modes.
  GeneratorOptions gopts;
  gopts.num_nodes = 4000;
  gopts.num_edges = 60000;
  gopts.num_labels = 3;
  gopts.seed = 11;
  Graph g = GenerateErdosRenyi(gopts);

  TempFile file("rigpm_diff_snap");
  std::string error;
  ASSERT_TRUE(SaveEngineSnapshot(GmEngine(g), file.path(), &error)) << error;

  for (SnapshotIoMode mode : kBothModes) {
    std::optional<WarmEngine> warm =
        LoadEngineSnapshot(file.path(), {.io_mode = mode}, &error);
    ASSERT_TRUE(warm.has_value()) << error;
    const Graph* loaded = warm->graph.get();
    ASSERT_EQ(loaded->NumNodes(), g.NumNodes());
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      EXPECT_TRUE(std::ranges::equal(loaded->OutNeighbors(v),
                                     g.OutNeighbors(v)));
      EXPECT_TRUE(std::ranges::equal(loaded->InNeighbors(v),
                                     g.InNeighbors(v)));
    }
    for (LabelId l = 0; l < g.NumLabels(); ++l) {
      EXPECT_EQ(loaded->LabelBitmap(l), g.LabelBitmap(l));
    }

    TempFile resaved("rigpm_diff_resave");
    ASSERT_TRUE(SaveEngineSnapshot(*warm->engine, resaved.path(), &error))
        << error;
    std::optional<WarmEngine> again =
        LoadEngineSnapshot(resaved.path(), {.io_mode = mode}, &error);
    ASSERT_TRUE(again.has_value()) << error;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      EXPECT_TRUE(std::ranges::equal(again->graph->OutNeighbors(v),
                                     g.OutNeighbors(v)));
    }
  }
}

}  // namespace
}  // namespace rigpm
