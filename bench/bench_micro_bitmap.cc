// Microbenchmarks (google-benchmark) for the compressed-bitmap substrate —
// the operations Section 6 identifies as the hot path of BuildRIG and MJoin:
// the multiway intersection MJoin runs (AndManyInto), the union, iteration
// and membership, the first two once per pairing of the two container kinds.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>
#include <vector>

#include "bitmap/bitmap.h"

namespace {

using rigpm::Bitmap;

Bitmap RandomBitmap(uint32_t universe, uint32_t count, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<uint32_t> dist(0, universe - 1);
  Bitmap b;
  for (uint32_t i = 0; i < count; ++i) b.Add(dist(rng));
  return b;
}

void BM_BitmapAndMany(benchmark::State& state) {
  const uint32_t universe = 1u << 20;
  std::vector<Bitmap> bitmaps;
  for (int i = 0; i < state.range(0); ++i) {
    bitmaps.push_back(RandomBitmap(universe, 1u << 14, 10 + i));
  }
  std::vector<const Bitmap*> ptrs;
  for (auto& b : bitmaps) ptrs.push_back(&b);
  // One output vector across iterations, as each MJoin step reuses its own.
  std::vector<uint32_t> out;
  for (auto _ : state) {
    Bitmap::AndManyInto(ptrs, &out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BitmapAndMany)->Arg(2)->Arg(4)->Arg(8);

// --- Per-container-type kernels ---------------------------------------------
//
// Shaped inputs that settle into one specific container kind per 64K chunk,
// so each benchmark pins one cell of the container-pair kernel matrix
// (array / bitset x AndManyInto / Or, and ForEach per kind). 16 chunks each:
//  * array  — ~3000 scattered values per chunk (<= 4096, so array);
//  * bitset — ~20000 scattered values per chunk (> 4096, so bitset).

enum class Shape { kArray, kBitset };

rigpm::Bitmap ShapedBitmap(Shape shape, uint64_t seed) {
  constexpr uint32_t kChunks = 16;
  std::mt19937_64 rng(seed);
  std::vector<uint32_t> values;
  for (uint32_t chunk = 0; chunk < kChunks; ++chunk) {
    const uint32_t base = chunk << 16;
    std::uniform_int_distribution<uint32_t> dist(0, 0xFFFF);
    switch (shape) {
      case Shape::kArray:
        for (int i = 0; i < 3000; ++i) values.push_back(base + dist(rng));
        break;
      case Shape::kBitset:
        for (int i = 0; i < 20000; ++i) values.push_back(base + dist(rng));
        break;
    }
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return rigpm::Bitmap::FromSorted(values);
}

enum class PairOp { kAndMany, kOr };

void BM_ContainerPair(benchmark::State& state, Shape sa, Shape sb, PairOp op) {
  Bitmap a = ShapedBitmap(sa, 101);
  Bitmap b = ShapedBitmap(sb, 202);
  const Bitmap* inputs[] = {&a, &b};
  // One output vector across iterations, as each MJoin step reuses its own.
  std::vector<uint32_t> out;
  for (auto _ : state) {
    switch (op) {
      case PairOp::kAndMany:
        Bitmap::AndManyInto(inputs, &out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
        break;
      case PairOp::kOr:
        benchmark::DoNotOptimize(Bitmap::Or(a, b));
        break;
    }
  }
}

#define RIGPM_PAIR_BENCH(op_name, op)                                       \
  BENCHMARK_CAPTURE(BM_ContainerPair, op_name##_array_array, Shape::kArray, \
                    Shape::kArray, op);                                     \
  BENCHMARK_CAPTURE(BM_ContainerPair, op_name##_array_bitset, Shape::kArray,\
                    Shape::kBitset, op);                                    \
  BENCHMARK_CAPTURE(BM_ContainerPair, op_name##_bitset_array,               \
                    Shape::kBitset, Shape::kArray, op);                     \
  BENCHMARK_CAPTURE(BM_ContainerPair, op_name##_bitset_bitset,              \
                    Shape::kBitset, Shape::kBitset, op)

RIGPM_PAIR_BENCH(and_many, PairOp::kAndMany);
RIGPM_PAIR_BENCH(or, PairOp::kOr);

#undef RIGPM_PAIR_BENCH

void BM_ContainerForEach(benchmark::State& state, Shape shape) {
  Bitmap b = ShapedBitmap(shape, 303);
  for (auto _ : state) {
    uint64_t sum = 0;
    b.ForEach([&sum](uint32_t v) { sum += v; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK_CAPTURE(BM_ContainerForEach, array, Shape::kArray);
BENCHMARK_CAPTURE(BM_ContainerForEach, bitset, Shape::kBitset);

void BM_BitmapForEach(benchmark::State& state) {
  Bitmap b = RandomBitmap(1u << 20, 1u << 16, 5);
  for (auto _ : state) {
    uint64_t sum = 0;
    b.ForEach([&sum](uint32_t v) { sum += v; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BitmapForEach);

void BM_BitmapContains(benchmark::State& state) {
  Bitmap b = RandomBitmap(1u << 20, 1u << 16, 6);
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<uint32_t> dist(0, (1u << 20) - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.Contains(dist(rng)));
  }
}
BENCHMARK(BM_BitmapContains);

}  // namespace

BENCHMARK_MAIN();
