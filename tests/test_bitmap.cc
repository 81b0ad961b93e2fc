#include "bitmap/bitmap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <set>
#include <vector>

namespace rigpm {
namespace {

// {0, 1, ..., n - 1}.
Bitmap Range(uint32_t n) {
  std::vector<uint32_t> values(n);
  std::iota(values.begin(), values.end(), 0u);
  return Bitmap::FromSorted(values);
}

TEST(Bitmap, StartsEmpty) {
  Bitmap b;
  EXPECT_TRUE(b.Empty());
  EXPECT_EQ(b.Cardinality(), 0u);
  EXPECT_FALSE(b.Contains(0));
  EXPECT_EQ(b.ToVector(), std::vector<uint32_t>{});
}

TEST(Bitmap, AddContains) {
  Bitmap b;
  b.Add(5);
  b.Add(100000);
  b.Add(5);  // duplicate
  EXPECT_EQ(b.Cardinality(), 2u);
  EXPECT_TRUE(b.Contains(5));
  EXPECT_TRUE(b.Contains(100000));
  EXPECT_FALSE(b.Contains(6));
}

TEST(Bitmap, InitializerListSortsValues) {
  Bitmap b = {42, 7, 99};
  EXPECT_EQ(b.Cardinality(), 3u);
  EXPECT_EQ(b.ToVector(), (std::vector<uint32_t>{7, 42, 99}));
}

TEST(Bitmap, FromSortedMatchesAdds) {
  std::vector<uint32_t> values = {1, 2, 70000, 70001, 1u << 20};
  Bitmap a = Bitmap::FromSorted(values);
  Bitmap b;
  for (uint32_t v : values) b.Add(v);
  EXPECT_EQ(a, b);
}

TEST(Bitmap, ArrayPromotesToBitset) {
  Bitmap b;
  for (uint32_t i = 0; i < Bitmap::kArrayCapacity + 10; ++i) b.Add(i * 2);
  EXPECT_EQ(b.Cardinality(), Bitmap::kArrayCapacity + 10);
  for (uint32_t i = 0; i < Bitmap::kArrayCapacity + 10; ++i) {
    EXPECT_TRUE(b.Contains(i * 2));
    EXPECT_FALSE(b.Contains(i * 2 + 1));
  }
}

TEST(Bitmap, OrBasic) {
  Bitmap a = {1, 2, 3, 100000};
  Bitmap b = {2, 3, 4, 200000};
  const std::vector<uint32_t> both = {1, 2, 3, 4, 100000, 200000};
  EXPECT_EQ(Bitmap::Or(a, b).ToVector(), both);
  a.OrWith(b);
  EXPECT_EQ(a.ToVector(), both);
}

TEST(Bitmap, AndManyIntoIntersectsEveryInput) {
  Bitmap a = Range(1000);
  Bitmap b = {5, 10, 999, 2000};
  Bitmap c = {10, 999};
  std::vector<const Bitmap*> inputs = {&a, &b, &c};
  std::vector<uint32_t> out;
  Bitmap::AndManyInto(inputs, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{10, 999}));
  Bitmap::AndManyInto({}, &out);
  EXPECT_TRUE(out.empty());
  // A chunk missing from one input drops the smallest input's values there.
  Bitmap d = {10, 70000};
  Bitmap e = {10, 999, 70000, 70001};
  Bitmap f = {10, 999};
  std::vector<const Bitmap*> chunks = {&d, &e, &f};
  Bitmap::AndManyInto(chunks, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{10}));
}

TEST(Bitmap, ForEachVisitsInOrder) {
  Bitmap b = {9, 1, 70001, 70000};
  std::vector<uint32_t> seen;
  EXPECT_TRUE(b.ForEach([&seen](uint32_t v) { seen.push_back(v); }));
  EXPECT_EQ(seen, (std::vector<uint32_t>{1, 9, 70000, 70001}));
}

TEST(Bitmap, ForEachStopsWhenTheVisitorReturnsFalse) {
  Bitmap b = {9, 1, 70001, 70000};
  b.Add(200000);
  std::vector<uint32_t> seen;
  EXPECT_FALSE(b.ForEach([&seen](uint32_t v) {
    seen.push_back(v);
    return v < 70000;
  }));
  EXPECT_EQ(seen, (std::vector<uint32_t>{1, 9, 70000}));
  // A bitset container stops mid-word as well.
  Bitmap dense = Range(10000);
  uint32_t visited = 0;
  EXPECT_FALSE(dense.ForEach([&visited](uint32_t v) {
    ++visited;
    return v != 4100;
  }));
  EXPECT_EQ(visited, 4101u);
  EXPECT_TRUE(dense.ForEach([](uint32_t) { return true; }));
}

TEST(Bitmap, EqualityAcrossConstructionPaths) {
  // The same 5000 values (a bitset) built by Add, by FromSorted, and by the
  // union of two arrays; and 10 values (an array) by Add and by FromSorted.
  Bitmap added;
  for (uint32_t i = 0; i < 5000; ++i) added.Add(i);
  Bitmap low, high;
  for (uint32_t i = 0; i < 2500; ++i) low.Add(i);
  for (uint32_t i = 2500; i < 5000; ++i) high.Add(i);
  EXPECT_EQ(added, Range(5000));
  EXPECT_EQ(added, Bitmap::Or(low, high));
  Bitmap small;
  for (uint32_t i = 0; i < 10; ++i) small.Add(i);
  EXPECT_EQ(small, Range(10));
  EXPECT_NE(small, added);
}

TEST(Bitmap, MemoryBytesGrowsWithContent) {
  Bitmap empty;
  Bitmap loaded = Range(100000);
  EXPECT_GT(loaded.MemoryBytes(), empty.MemoryBytes());
}

// ---------------------------------------------------------------------------
// Property tests: every operation must agree with a std::set reference model
// across sparse, dense, and clustered value distributions.
// ---------------------------------------------------------------------------

struct RandomParams {
  uint32_t universe;
  uint32_t inserts;
  const char* label;
};

class BitmapPropertyTest : public ::testing::TestWithParam<RandomParams> {};

TEST_P(BitmapPropertyTest, MatchesReferenceSet) {
  const RandomParams p = GetParam();
  std::mt19937_64 rng(p.universe * 31 + p.inserts);
  std::uniform_int_distribution<uint32_t> dist(0, p.universe - 1);

  Bitmap a_bm, b_bm;
  std::set<uint32_t> a_ref, b_ref;
  for (uint32_t i = 0; i < p.inserts; ++i) {
    uint32_t va = dist(rng), vb = dist(rng);
    a_bm.Add(va);
    a_ref.insert(va);
    b_bm.Add(vb);
    b_ref.insert(vb);
  }
  EXPECT_EQ(a_bm.Cardinality(), a_ref.size());
  EXPECT_EQ(a_bm.ToVector(),
            std::vector<uint32_t>(a_ref.begin(), a_ref.end()));

  auto check = [](const Bitmap& got, const std::set<uint32_t>& want) {
    EXPECT_EQ(got.ToVector(), std::vector<uint32_t>(want.begin(), want.end()));
  };
  std::vector<uint32_t> and_ref;
  std::set<uint32_t> or_ref;
  std::set_intersection(a_ref.begin(), a_ref.end(), b_ref.begin(), b_ref.end(),
                        std::back_inserter(and_ref));
  std::set_union(a_ref.begin(), a_ref.end(), b_ref.begin(), b_ref.end(),
                 std::inserter(or_ref, or_ref.begin()));
  check(Bitmap::Or(a_bm, b_bm), or_ref);
  Bitmap c = a_bm;
  c.OrWith(b_bm);
  check(c, or_ref);
  const Bitmap* ab[] = {&a_bm, &b_bm};
  std::vector<uint32_t> out;
  Bitmap::AndManyInto(ab, &out);
  EXPECT_EQ(out, and_ref);

  // Membership spot checks.
  for (uint32_t i = 0; i < 100; ++i) {
    uint32_t v = dist(rng);
    EXPECT_EQ(a_bm.Contains(v), a_ref.count(v) > 0) << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, BitmapPropertyTest,
    ::testing::Values(RandomParams{1u << 8, 200, "tiny_dense"},
                      RandomParams{1u << 16, 1000, "one_container_sparse"},
                      RandomParams{1u << 16, 30000, "one_container_dense"},
                      RandomParams{1u << 22, 5000, "many_containers_sparse"},
                      RandomParams{1u << 18, 120000, "mixed_kinds"}),
    [](const ::testing::TestParamInfo<RandomParams>& info) {
      return info.param.label;
    });

TEST(BitmapProperty, MultiwayAgreesWithFolds) {
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<uint32_t> dist(0, 1u << 18);
  std::vector<Bitmap> bitmaps(6);
  for (auto& b : bitmaps) {
    for (int i = 0; i < 3000; ++i) b.Add(dist(rng));
    b.Add(12345);  // common element so the intersection is non-empty
  }
  std::vector<const Bitmap*> ptrs;
  for (auto& b : bitmaps) ptrs.push_back(&b);

  // The fold keeps the values of the first bitmap every other one holds.
  std::vector<uint32_t> and_fold = bitmaps[0].ToVector();
  for (size_t i = 1; i < bitmaps.size(); ++i) {
    std::erase_if(and_fold,
                  [&](uint32_t v) { return !bitmaps[i].Contains(v); });
  }
  std::vector<uint32_t> out;
  Bitmap::AndManyInto(ptrs, &out);
  EXPECT_EQ(out, and_fold);
  EXPECT_TRUE(std::ranges::binary_search(and_fold, 12345u));
}

}  // namespace
}  // namespace rigpm
