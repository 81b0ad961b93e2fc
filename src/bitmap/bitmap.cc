#include "bitmap/bitmap.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace rigpm {

namespace {

constexpr uint32_t kWordsPerBitset = 1024;  // 1024 * 64 = 65536 bits
constexpr uint32_t kBitsetBytes = kWordsPerBitset * sizeof(uint64_t);

uint16_t HighBits(uint32_t value) { return static_cast<uint16_t>(value >> 16); }
uint16_t LowBits(uint32_t value) {
  return static_cast<uint16_t>(value & 0xFFFF);
}

uint32_t Combine(uint16_t key, uint16_t low) {
  return (static_cast<uint32_t>(key) << 16) | low;
}

// Native payload bytes of the decoded (array-or-bitset) form of `card`
// values: the footprint a run container competes against.
uint64_t DecodedBytes(uint32_t card) {
  return card <= Bitmap::kArrayCapacity ? uint64_t{2} * card : kBitsetBytes;
}

// Invokes fn(word_index, mask) for every 64-bit bitset word overlapped by
// the inclusive run [s, e] (0 <= s <= e <= 65535), with the mask selecting
// exactly the run's bits within that word. The workhorse of every run x
// bitset kernel: runs translate to whole-word operations, so a run
// container interacts with a bitset at memcpy-like speed.
template <typename Fn>
void ForEachRunWord(uint32_t s, uint32_t e, Fn&& fn) {
  uint32_t first = s >> 6;
  uint32_t last = e >> 6;
  uint64_t first_mask = ~uint64_t{0} << (s & 63);
  uint64_t last_mask =
      (e & 63) == 63 ? ~uint64_t{0} : (uint64_t{1} << ((e & 63) + 1)) - 1;
  if (first == last) {
    fn(first, first_mask & last_mask);
    return;
  }
  fn(first, first_mask);
  for (uint32_t w = first + 1; w < last; ++w) fn(w, ~uint64_t{0});
  fn(last, last_mask);
}

// Appends the inclusive run [s, e] to a canonical (start, length-1) pair
// list, merging with the previous run when they overlap or touch. Feeding
// runs in non-decreasing start order yields canonical output.
void AppendRun(std::vector<uint16_t>* pairs, uint32_t s, uint32_t e) {
  if (!pairs->empty()) {
    uint32_t prev_s = (*pairs)[pairs->size() - 2];
    uint32_t prev_e = prev_s + (*pairs)[pairs->size() - 1];
    if (s <= prev_e + 1) {
      if (e > prev_e) (*pairs)[pairs->size() - 1] =
          static_cast<uint16_t>(e - prev_s);
      return;
    }
  }
  pairs->push_back(static_cast<uint16_t>(s));
  pairs->push_back(static_cast<uint16_t>(e - s));
}

uint32_t CardinalityOfPairs(std::span<const uint16_t> pairs) {
  uint32_t card = 0;
  for (size_t i = 1; i < pairs.size(); i += 2) card += pairs[i] + 1u;
  return card;
}

// Number of maximal consecutive runs in a sorted value array.
size_t CountRunsSorted(std::span<const uint16_t> values) {
  size_t runs = values.empty() ? 0 : 1;
  for (size_t i = 1; i < values.size(); ++i) {
    runs += values[i] != static_cast<uint16_t>(values[i - 1] + 1);
  }
  return runs;
}

// Number of maximal consecutive runs in a bitset, counted word-at-a-time:
// a bit starts a run iff it is set and its predecessor bit is not.
size_t CountRunsBitset(std::span<const uint64_t> words) {
  size_t runs = 0;
  uint64_t carry = 0;  // the previous word's top bit
  for (uint64_t word : words) {
    runs += static_cast<size_t>(std::popcount(word & ~((word << 1) | carry)));
    carry = word >> 63;
  }
  return runs;
}

void PairsFromSortedArray(std::span<const uint16_t> values,
                          std::vector<uint16_t>* pairs) {
  size_t i = 0;
  while (i < values.size()) {
    size_t j = i + 1;
    while (j < values.size() &&
           values[j] == static_cast<uint16_t>(values[j - 1] + 1)) {
      ++j;
    }
    pairs->push_back(values[i]);
    pairs->push_back(static_cast<uint16_t>(j - i - 1));
    i = j;
  }
}

void PairsFromBitset(std::span<const uint64_t> words,
                     std::vector<uint16_t>* pairs) {
  for (uint32_t w = 0; w < kWordsPerBitset; ++w) {
    uint64_t word = words[w];
    while (word != 0) {
      uint32_t start = static_cast<uint32_t>(std::countr_zero(word));
      uint32_t len = static_cast<uint32_t>(std::countr_one(word >> start));
      AppendRun(pairs, (w << 6) | start, ((w << 6) | start) + len - 1);
      if (start + len >= 64) break;
      word &= ~(((uint64_t{1} << len) - 1) << start);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Container helpers
// ---------------------------------------------------------------------------

bool Bitmap::Container::Contains(uint16_t low) const {
  switch (kind) {
    case Kind::kArray:
      return std::binary_search(array.begin(), array.end(), low);
    case Kind::kBitset:
      return (words[low >> 6] >> (low & 63)) & 1;
    case Kind::kRun: {
      // Last run whose start is <= low, then a bounds check against its end.
      size_t lo = 0, hi = NumRuns();
      while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (RunStart(mid) <= low) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo > 0 && low <= RunEnd(lo - 1);
    }
  }
  return false;
}

void Bitmap::Container::ToBitset() {
  if (kind == Kind::kBitset) return;
  std::vector<uint64_t> w(kWordsPerBitset, 0);
  if (kind == Kind::kArray) {
    for (uint16_t low : array) {
      w[low >> 6] |= uint64_t{1} << (low & 63);
    }
  } else {
    for (size_t i = 0; i < NumRuns(); ++i) {
      ForEachRunWord(RunStart(i), RunEnd(i),
                     [&w](uint32_t wi, uint64_t mask) { w[wi] |= mask; });
    }
  }
  words.Mutable() = std::move(w);
  array.Reset();
  kind = Kind::kBitset;
}

void Bitmap::Container::ToArrayIfSmall() {
  if (kind == Kind::kArray || cardinality > kArrayCapacity) return;
  std::vector<uint16_t> a;
  a.reserve(cardinality);
  if (kind == Kind::kBitset) {
    for (uint32_t w = 0; w < kWordsPerBitset; ++w) {
      uint64_t word = words[w];
      while (word != 0) {
        int bit = std::countr_zero(word);
        a.push_back(static_cast<uint16_t>((w << 6) | bit));
        word &= word - 1;
      }
    }
  } else {
    for (size_t i = 0; i < NumRuns(); ++i) {
      for (uint32_t v = RunStart(i); v <= RunEnd(i); ++v) {
        a.push_back(static_cast<uint16_t>(v));
      }
    }
  }
  array.Mutable() = std::move(a);
  words.Reset();
  kind = Kind::kArray;
}

void Bitmap::Container::Decompress() {
  if (kind != Kind::kRun) return;
  if (cardinality <= kArrayCapacity) {
    ToArrayIfSmall();
  } else {
    ToBitset();
  }
}

void Bitmap::Container::TryRunEncode() {
  size_t runs;
  switch (kind) {
    case Kind::kRun:
      runs = NumRuns();
      break;
    case Kind::kArray:
      runs = CountRunsSorted(array);
      break;
    default:
      runs = CountRunsBitset(words);
      break;
  }
  if (uint64_t{kBytesPerRun} * runs < DecodedBytes(cardinality)) {
    if (kind == Kind::kRun) return;
    std::vector<uint16_t> pairs;
    pairs.reserve(2 * runs);
    if (kind == Kind::kArray) {
      PairsFromSortedArray(array, &pairs);
    } else {
      PairsFromBitset(words, &pairs);
    }
    array.Mutable() = std::move(pairs);
    words.Reset();
    kind = Kind::kRun;
  } else if (kind == Kind::kRun) {
    Decompress();
  } else if (kind == Kind::kBitset) {
    ToArrayIfSmall();  // demotes only when the array form fits (and is <=)
  }
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Bitmap::Bitmap(std::initializer_list<uint32_t> values) {
  for (uint32_t v : values) Add(v);
}

Bitmap::Container Bitmap::ContainerFromRuns(uint16_t key,
                                            std::vector<uint16_t> run_pairs,
                                            uint32_t cardinality) {
  Container c;
  c.key = key;
  c.cardinality = cardinality;
  if (cardinality == 0) return c;  // empty array container; caller drops it
  uint64_t run_bytes = uint64_t{kBytesPerRun} * (run_pairs.size() / 2);
  if (run_bytes < DecodedBytes(cardinality)) {
    c.kind = Container::Kind::kRun;
    c.array.Mutable() = std::move(run_pairs);
    return c;
  }
  if (cardinality <= kArrayCapacity) {
    std::vector<uint16_t>& arr = c.array.Mutable();
    arr.reserve(cardinality);
    for (size_t i = 0; i < run_pairs.size(); i += 2) {
      uint32_t s = run_pairs[i];
      uint32_t e = s + run_pairs[i + 1];
      for (uint32_t v = s; v <= e; ++v) arr.push_back(static_cast<uint16_t>(v));
    }
    return c;
  }
  c.kind = Container::Kind::kBitset;
  std::vector<uint64_t>& w = c.words.Mutable();
  w.assign(kWordsPerBitset, 0);
  for (size_t i = 0; i < run_pairs.size(); i += 2) {
    uint32_t s = run_pairs[i];
    ForEachRunWord(s, s + run_pairs[i + 1],
                   [&w](uint32_t wi, uint64_t mask) { w[wi] |= mask; });
  }
  return c;
}

Bitmap Bitmap::FromSorted(std::span<const uint32_t> sorted_values) {
  Bitmap result;
  size_t i = 0;
  while (i < sorted_values.size()) {
    uint16_t key = HighBits(sorted_values[i]);
    size_t j = i;
    size_t runs = 1;
    while (j < sorted_values.size() && HighBits(sorted_values[j]) == key) {
      if (j > i) runs += sorted_values[j] != sorted_values[j - 1] + 1;
      ++j;
    }
    Container c;
    c.key = key;
    c.cardinality = static_cast<uint32_t>(j - i);
    if (uint64_t{kBytesPerRun} * runs < DecodedBytes(c.cardinality)) {
      c.kind = Container::Kind::kRun;
      std::vector<uint16_t>& pairs = c.array.Mutable();
      pairs.reserve(2 * runs);
      size_t k = i;
      while (k < j) {
        size_t m = k + 1;
        while (m < j && sorted_values[m] == sorted_values[m - 1] + 1) ++m;
        pairs.push_back(LowBits(sorted_values[k]));
        pairs.push_back(static_cast<uint16_t>(m - k - 1));
        k = m;
      }
    } else if (c.cardinality <= kArrayCapacity) {
      std::vector<uint16_t>& arr = c.array.Mutable();
      arr.reserve(c.cardinality);
      for (size_t k = i; k < j; ++k) arr.push_back(LowBits(sorted_values[k]));
    } else {
      c.kind = Container::Kind::kBitset;
      std::vector<uint64_t>& w = c.words.Mutable();
      w.assign(kWordsPerBitset, 0);
      for (size_t k = i; k < j; ++k) {
        uint16_t low = LowBits(sorted_values[k]);
        w[low >> 6] |= uint64_t{1} << (low & 63);
      }
    }
    result.containers_.push_back(std::move(c));
    result.cardinality_ += j - i;
    i = j;
  }
  return result;
}

Bitmap Bitmap::FromUnsorted(std::span<const uint32_t> values) {
  std::vector<uint32_t> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return FromSorted(sorted);
}

Bitmap Bitmap::FromRange(uint32_t n) {
  Bitmap result;
  uint32_t full_chunks = n >> 16;
  for (uint32_t key = 0; key < full_chunks; ++key) {
    result.containers_.push_back(ContainerFromRuns(
        static_cast<uint16_t>(key), {0, 65535}, 65536));
  }
  uint32_t rem = n & 0xFFFF;
  if (rem > 0) {
    result.containers_.push_back(
        ContainerFromRuns(static_cast<uint16_t>(full_chunks),
                          {0, static_cast<uint16_t>(rem - 1)}, rem));
  }
  result.cardinality_ = n;
  return result;
}

// ---------------------------------------------------------------------------
// Point operations
// ---------------------------------------------------------------------------

size_t Bitmap::FindContainer(uint16_t key) const {
  auto it = std::lower_bound(
      containers_.begin(), containers_.end(), key,
      [](const Container& c, uint16_t k) { return c.key < k; });
  if (it != containers_.end() && it->key == key) {
    return static_cast<size_t>(it - containers_.begin());
  }
  return containers_.size();
}

Bitmap::Container& Bitmap::GetOrCreateContainer(uint16_t key) {
  auto it = std::lower_bound(
      containers_.begin(), containers_.end(), key,
      [](const Container& c, uint16_t k) { return c.key < k; });
  if (it != containers_.end() && it->key == key) return *it;
  Container c;
  c.key = key;
  return *containers_.insert(it, std::move(c));
}

void Bitmap::Add(uint32_t value) {
  Container& c = GetOrCreateContainer(HighBits(value));
  uint16_t low = LowBits(value);
  // A run container is a read-optimized encoding: check membership on the
  // encoded form first (a redundant add must not trigger a decode), then
  // decompress to array/bitset and fall through to the mutable paths. This
  // is also the lazy-decode moment for run containers borrowed from an
  // mmap'd snapshot.
  if (c.kind == Container::Kind::kRun) {
    if (c.Contains(low)) return;
    c.Decompress();
  }
  // Mutable() up front keeps the hot path at a single binary search / word
  // access, as before the span refactor; it is free for owned containers
  // (everything the build path touches) and copies once for borrowed ones.
  if (c.kind == Container::Kind::kArray) {
    std::vector<uint16_t>& arr = c.array.Mutable();
    auto it = std::lower_bound(arr.begin(), arr.end(), low);
    if (it != arr.end() && *it == low) return;
    arr.insert(it, low);
    ++c.cardinality;
    ++cardinality_;
    if (c.cardinality > kArrayCapacity) c.ToBitset();
  } else {
    uint64_t& word = c.words.Mutable()[low >> 6];
    uint64_t mask = uint64_t{1} << (low & 63);
    if (word & mask) return;
    word |= mask;
    ++c.cardinality;
    ++cardinality_;
  }
}

void Bitmap::Remove(uint32_t value) {
  size_t idx = FindContainer(HighBits(value));
  if (idx == containers_.size()) return;
  Container& c = containers_[idx];
  uint16_t low = LowBits(value);
  if (c.kind == Container::Kind::kRun) {
    if (!c.Contains(low)) return;
    c.Decompress();
  }
  if (c.kind == Container::Kind::kArray) {
    std::vector<uint16_t>& arr = c.array.Mutable();
    auto it = std::lower_bound(arr.begin(), arr.end(), low);
    if (it == arr.end() || *it != low) return;
    arr.erase(it);
    --c.cardinality;
    --cardinality_;
  } else {
    uint64_t& word = c.words.Mutable()[low >> 6];
    uint64_t mask = uint64_t{1} << (low & 63);
    if (!(word & mask)) return;
    word &= ~mask;
    --c.cardinality;
    --cardinality_;
    c.ToArrayIfSmall();
  }
  if (c.cardinality == 0) {
    containers_.erase(containers_.begin() + static_cast<ptrdiff_t>(idx));
  }
}

bool Bitmap::Contains(uint32_t value) const {
  size_t idx = FindContainer(HighBits(value));
  if (idx == containers_.size()) return false;
  return containers_[idx].Contains(LowBits(value));
}

void Bitmap::Clear() {
  containers_.clear();
  cardinality_ = 0;
}

uint32_t Bitmap::First() const {
  assert(!Empty());
  const Container& c = containers_.front();
  switch (c.kind) {
    case Container::Kind::kArray:
      return Combine(c.key, c.array.front());
    case Container::Kind::kRun:
      return Combine(c.key, static_cast<uint16_t>(c.RunStart(0)));
    case Container::Kind::kBitset:
      for (uint32_t w = 0; w < kWordsPerBitset; ++w) {
        if (c.words[w] != 0) {
          return Combine(c.key, static_cast<uint16_t>(
                                    (w << 6) | std::countr_zero(c.words[w])));
        }
      }
      break;
  }
  return 0;  // unreachable given cardinality > 0
}

// ---------------------------------------------------------------------------
// Container-level set algebra
// ---------------------------------------------------------------------------

namespace {

// Intersection of two sorted uint16 arrays, linear merge with galloping when
// the sizes are lopsided.
void IntersectArrays(std::span<const uint16_t> a, std::span<const uint16_t> b,
                     std::vector<uint16_t>* out) {
  std::span<const uint16_t> small = a;
  std::span<const uint16_t> big = b;
  if (small.size() > big.size()) std::swap(small, big);
  if (big.size() > 32 * small.size()) {
    // Galloping: binary-search each element of the small side.
    auto begin = big.begin();
    for (uint16_t v : small) {
      begin = std::lower_bound(begin, big.end(), v);
      if (begin == big.end()) break;
      if (*begin == v) out->push_back(v);
    }
    return;
  }
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      out->push_back(a[i]);
      ++i;
      ++j;
    }
  }
}

}  // namespace

Bitmap::Container Bitmap::AndContainers(const Container& a,
                                        const Container& b) {
  Container out;
  out.key = a.key;
  using Kind = Container::Kind;
  if (a.kind == Kind::kArray && b.kind == Kind::kArray) {
    IntersectArrays(a.array, b.array, &out.array.Mutable());
    out.cardinality = static_cast<uint32_t>(out.array.size());
    return out;
  }
  if (a.kind == Kind::kBitset && b.kind == Kind::kBitset) {
    std::vector<uint64_t>& words = out.words.Mutable();
    words.assign(kWordsPerBitset, 0);
    uint32_t card = 0;
    for (uint32_t w = 0; w < kWordsPerBitset; ++w) {
      words[w] = a.words[w] & b.words[w];
      card += static_cast<uint32_t>(std::popcount(words[w]));
    }
    out.cardinality = card;
    out.kind = Kind::kBitset;
    out.ToArrayIfSmall();
    return out;
  }
  if (a.kind == Kind::kRun && b.kind == Kind::kRun) {
    // Interval intersection: canonical inputs yield canonical output (every
    // output gap is inherited from one side's gap).
    std::vector<uint16_t> pairs;
    size_t i = 0, j = 0;
    while (i < a.NumRuns() && j < b.NumRuns()) {
      uint32_t s = std::max(a.RunStart(i), b.RunStart(j));
      uint32_t e = std::min(a.RunEnd(i), b.RunEnd(j));
      if (s <= e) AppendRun(&pairs, s, e);
      if (a.RunEnd(i) < b.RunEnd(j)) {
        ++i;
      } else if (a.RunEnd(i) > b.RunEnd(j)) {
        ++j;
      } else {
        ++i;
        ++j;
      }
    }
    uint32_t card = CardinalityOfPairs(pairs);
    return ContainerFromRuns(a.key, std::move(pairs), card);
  }
  if (a.kind == Kind::kRun || b.kind == Kind::kRun) {
    const Container& run = (a.kind == Kind::kRun) ? a : b;
    const Container& other = (a.kind == Kind::kRun) ? b : a;
    if (other.kind == Kind::kArray) {
      // Monotonic run cursor over the sorted array.
      std::vector<uint16_t>& out_arr = out.array.Mutable();
      size_t j = 0;
      for (uint16_t v : other.array) {
        while (j < run.NumRuns() && run.RunEnd(j) < v) ++j;
        if (j == run.NumRuns()) break;
        if (run.RunStart(j) <= v) out_arr.push_back(v);
      }
      out.cardinality = static_cast<uint32_t>(out_arr.size());
      return out;
    }
    // run x bitset: whole-word masked copies.
    out.kind = Kind::kBitset;
    std::vector<uint64_t>& words = out.words.Mutable();
    words.assign(kWordsPerBitset, 0);
    uint32_t card = 0;
    for (size_t i = 0; i < run.NumRuns(); ++i) {
      ForEachRunWord(run.RunStart(i), run.RunEnd(i),
                     [&](uint32_t w, uint64_t mask) {
                       uint64_t hit = other.words[w] & mask;
                       words[w] |= hit;
                       card += static_cast<uint32_t>(std::popcount(hit));
                     });
    }
    out.cardinality = card;
    out.ToArrayIfSmall();
    return out;
  }
  // array x bitset: probe the bitset with each array element.
  const Container& arr = (a.kind == Kind::kArray) ? a : b;
  const Container& bits = (a.kind == Kind::kArray) ? b : a;
  std::vector<uint16_t>& out_arr = out.array.Mutable();
  out_arr.reserve(arr.array.size());
  for (uint16_t low : arr.array) {
    if ((bits.words[low >> 6] >> (low & 63)) & 1) out_arr.push_back(low);
  }
  out.cardinality = static_cast<uint32_t>(out_arr.size());
  return out;
}

Bitmap::Container Bitmap::OrContainers(const Container& a, const Container& b) {
  Container out;
  out.key = a.key;
  using Kind = Container::Kind;
  if (a.kind == Kind::kArray && b.kind == Kind::kArray) {
    std::vector<uint16_t>& out_arr = out.array.Mutable();
    out_arr.reserve(a.array.size() + b.array.size());
    std::set_union(a.array.begin(), a.array.end(), b.array.begin(),
                   b.array.end(), std::back_inserter(out_arr));
    out.cardinality = static_cast<uint32_t>(out_arr.size());
    if (out.cardinality > kArrayCapacity) out.ToBitset();
    return out;
  }
  if (a.kind != Kind::kBitset && b.kind != Kind::kBitset &&
      (a.kind == Kind::kRun || b.kind == Kind::kRun)) {
    // run x run / run x array: merge both sides as interval streams in start
    // order (an array element is the degenerate run [v, v]); AppendRun
    // coalesces overlap and adjacency.
    std::vector<uint16_t> pairs;
    auto next_start = [](const Container& c, size_t i) {
      return c.kind == Kind::kRun ? c.RunStart(i)
                                  : static_cast<uint32_t>(c.array[i]);
    };
    auto count = [](const Container& c) {
      return c.kind == Kind::kRun ? c.NumRuns() : c.array.size();
    };
    auto emit = [&pairs, &next_start](const Container& c, size_t i) {
      uint32_t s = next_start(c, i);
      AppendRun(&pairs, s, c.kind == Kind::kRun ? c.RunEnd(i) : s);
    };
    size_t i = 0, j = 0;
    while (i < count(a) || j < count(b)) {
      bool take_a = j == count(b) ||
                    (i < count(a) && next_start(a, i) <= next_start(b, j));
      if (take_a) {
        emit(a, i++);
      } else {
        emit(b, j++);
      }
    }
    uint32_t card = CardinalityOfPairs(pairs);
    return ContainerFromRuns(a.key, std::move(pairs), card);
  }
  // At least one bitset: result is a bitset.
  out.kind = Kind::kBitset;
  std::vector<uint64_t>& words = out.words.Mutable();
  words.assign(kWordsPerBitset, 0);
  auto blend = [&words](const Container& c) {
    switch (c.kind) {
      case Kind::kBitset:
        for (uint32_t w = 0; w < kWordsPerBitset; ++w) words[w] |= c.words[w];
        break;
      case Kind::kArray:
        for (uint16_t low : c.array) {
          words[low >> 6] |= uint64_t{1} << (low & 63);
        }
        break;
      case Kind::kRun:
        for (size_t i = 0; i < c.NumRuns(); ++i) {
          ForEachRunWord(c.RunStart(i), c.RunEnd(i),
                         [&words](uint32_t w, uint64_t mask) {
                           words[w] |= mask;
                         });
        }
        break;
    }
  };
  blend(a);
  blend(b);
  uint32_t card = 0;
  for (uint32_t w = 0; w < kWordsPerBitset; ++w) {
    card += static_cast<uint32_t>(std::popcount(words[w]));
  }
  out.cardinality = card;
  return out;
}

Bitmap::Container Bitmap::AndNotContainers(const Container& a,
                                           const Container& b) {
  Container out;
  out.key = a.key;
  using Kind = Container::Kind;
  if (a.kind == Kind::kArray) {
    std::vector<uint16_t>& out_arr = out.array.Mutable();
    out_arr.reserve(a.array.size());
    for (uint16_t low : a.array) {
      if (!b.Contains(low)) out_arr.push_back(low);
    }
    out.cardinality = static_cast<uint32_t>(out_arr.size());
    return out;
  }
  if (a.kind == Kind::kRun) {
    if (b.kind == Kind::kRun) {
      // Interval subtraction: emit the pieces of each a-run not covered by
      // b-runs.
      std::vector<uint16_t> pairs;
      size_t j = 0;
      for (size_t i = 0; i < a.NumRuns(); ++i) {
        uint32_t cur = a.RunStart(i);
        uint32_t e = a.RunEnd(i);
        while (j < b.NumRuns() && b.RunEnd(j) < cur) ++j;
        size_t k = j;  // a long b-run may also cover the next a-run
        while (cur <= e) {
          if (k == b.NumRuns() || b.RunStart(k) > e) {
            AppendRun(&pairs, cur, e);
            break;
          }
          if (b.RunStart(k) > cur) AppendRun(&pairs, cur, b.RunStart(k) - 1);
          if (b.RunEnd(k) >= e) break;
          cur = b.RunEnd(k) + 1;
          ++k;
        }
      }
      uint32_t card = CardinalityOfPairs(pairs);
      return ContainerFromRuns(a.key, std::move(pairs), card);
    }
    if (a.cardinality <= kArrayCapacity) {
      std::vector<uint16_t>& out_arr = out.array.Mutable();
      for (size_t i = 0; i < a.NumRuns(); ++i) {
        for (uint32_t v = a.RunStart(i); v <= a.RunEnd(i); ++v) {
          if (!b.Contains(static_cast<uint16_t>(v))) {
            out_arr.push_back(static_cast<uint16_t>(v));
          }
        }
      }
      out.cardinality = static_cast<uint32_t>(out_arr.size());
      return out;
    }
    // Dense run minus array/bitset: materialize a's bits, then clear below.
    out.kind = Kind::kBitset;
    std::vector<uint64_t>& words = out.words.Mutable();
    words.assign(kWordsPerBitset, 0);
    for (size_t i = 0; i < a.NumRuns(); ++i) {
      ForEachRunWord(a.RunStart(i), a.RunEnd(i),
                     [&words](uint32_t w, uint64_t mask) {
                       words[w] |= mask;
                     });
    }
  } else {
    out.kind = Kind::kBitset;
    out.words = a.words;  // deep copy (a may borrow from a snapshot mapping)
  }
  std::vector<uint64_t>& words = out.words.Mutable();
  switch (b.kind) {
    case Kind::kBitset:
      for (uint32_t w = 0; w < kWordsPerBitset; ++w) words[w] &= ~b.words[w];
      break;
    case Kind::kArray:
      for (uint16_t low : b.array) {
        words[low >> 6] &= ~(uint64_t{1} << (low & 63));
      }
      break;
    case Kind::kRun:
      for (size_t i = 0; i < b.NumRuns(); ++i) {
        ForEachRunWord(b.RunStart(i), b.RunEnd(i),
                       [&words](uint32_t w, uint64_t mask) {
                         words[w] &= ~mask;
                       });
      }
      break;
  }
  uint32_t card = 0;
  for (uint32_t w = 0; w < kWordsPerBitset; ++w) {
    card += static_cast<uint32_t>(std::popcount(words[w]));
  }
  out.cardinality = card;
  out.ToArrayIfSmall();
  return out;
}

bool Bitmap::ContainersIntersect(const Container& a, const Container& b) {
  using Kind = Container::Kind;
  if (a.kind == Kind::kArray && b.kind == Kind::kArray) {
    size_t i = 0, j = 0;
    while (i < a.array.size() && j < b.array.size()) {
      if (a.array[i] < b.array[j]) {
        ++i;
      } else if (a.array[i] > b.array[j]) {
        ++j;
      } else {
        return true;
      }
    }
    return false;
  }
  if (a.kind == Kind::kBitset && b.kind == Kind::kBitset) {
    for (uint32_t w = 0; w < kWordsPerBitset; ++w) {
      if (a.words[w] & b.words[w]) return true;
    }
    return false;
  }
  if (a.kind == Kind::kRun && b.kind == Kind::kRun) {
    size_t i = 0, j = 0;
    while (i < a.NumRuns() && j < b.NumRuns()) {
      if (a.RunEnd(i) < b.RunStart(j)) {
        ++i;
      } else if (b.RunEnd(j) < a.RunStart(i)) {
        ++j;
      } else {
        return true;
      }
    }
    return false;
  }
  if (a.kind == Kind::kRun || b.kind == Kind::kRun) {
    const Container& run = (a.kind == Kind::kRun) ? a : b;
    const Container& other = (a.kind == Kind::kRun) ? b : a;
    if (other.kind == Kind::kArray) {
      size_t j = 0;
      for (uint16_t v : other.array) {
        while (j < run.NumRuns() && run.RunEnd(j) < v) ++j;
        if (j == run.NumRuns()) return false;
        if (run.RunStart(j) <= v) return true;
      }
      return false;
    }
    for (size_t i = 0; i < run.NumRuns(); ++i) {
      bool hit = false;
      ForEachRunWord(run.RunStart(i), run.RunEnd(i),
                     [&](uint32_t w, uint64_t mask) {
                       hit = hit || (other.words[w] & mask) != 0;
                     });
      if (hit) return true;
    }
    return false;
  }
  const Container& arr = (a.kind == Kind::kArray) ? a : b;
  const Container& bits = (a.kind == Kind::kArray) ? b : a;
  for (uint16_t low : arr.array) {
    if ((bits.words[low >> 6] >> (low & 63)) & 1) return true;
  }
  return false;
}

bool Bitmap::ContainerSubset(const Container& a, const Container& b) {
  using Kind = Container::Kind;
  if (a.cardinality > b.cardinality) return false;
  if (a.kind == Kind::kArray) {
    for (uint16_t low : a.array) {
      if (!b.Contains(low)) return false;
    }
    return true;
  }
  if (a.kind == Kind::kRun) {
    if (b.kind == Kind::kRun) {
      // Every a-run must sit inside a single b-run (b is canonical, so a run
      // cannot straddle a gap).
      size_t j = 0;
      for (size_t i = 0; i < a.NumRuns(); ++i) {
        while (j < b.NumRuns() && b.RunEnd(j) < a.RunStart(i)) ++j;
        if (j == b.NumRuns() || b.RunStart(j) > a.RunStart(i) ||
            b.RunEnd(j) < a.RunEnd(i)) {
          return false;
        }
      }
      return true;
    }
    if (b.kind == Kind::kBitset) {
      bool missing = false;
      for (size_t i = 0; i < a.NumRuns() && !missing; ++i) {
        ForEachRunWord(a.RunStart(i), a.RunEnd(i),
                       [&](uint32_t w, uint64_t mask) {
                         missing = missing || (mask & ~b.words[w]) != 0;
                       });
      }
      return !missing;
    }
    for (size_t i = 0; i < a.NumRuns(); ++i) {
      for (uint32_t v = a.RunStart(i); v <= a.RunEnd(i); ++v) {
        if (!b.Contains(static_cast<uint16_t>(v))) return false;
      }
    }
    return true;
  }
  // a is a bitset.
  if (b.kind == Kind::kBitset) {
    for (uint32_t w = 0; w < kWordsPerBitset; ++w) {
      if (a.words[w] & ~b.words[w]) return false;
    }
    return true;
  }
  if (b.kind == Kind::kRun) {
    // Iterate a's set bits with a monotonic cursor over b's runs.
    size_t j = 0;
    for (uint32_t w = 0; w < kWordsPerBitset; ++w) {
      uint64_t word = a.words[w];
      while (word != 0) {
        uint32_t bit = (w << 6) | static_cast<uint32_t>(std::countr_zero(word));
        while (j < b.NumRuns() && b.RunEnd(j) < bit) ++j;
        if (j == b.NumRuns() || b.RunStart(j) > bit) return false;
        word &= word - 1;
      }
    }
    return true;
  }
  // a bitset, b array with b.cardinality >= a.cardinality > kArrayCapacity is
  // impossible (arrays hold <= kArrayCapacity), so a cannot be a subset unless
  // it fits; fall back to an element scan.
  for (uint32_t w = 0; w < kWordsPerBitset; ++w) {
    uint64_t word = a.words[w];
    while (word != 0) {
      int bit = std::countr_zero(word);
      if (!b.Contains(static_cast<uint16_t>((w << 6) | bit))) return false;
      word &= word - 1;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Bitmap-level set algebra
// ---------------------------------------------------------------------------

bool Bitmap::Intersects(const Bitmap& other) const {
  size_t i = 0, j = 0;
  while (i < containers_.size() && j < other.containers_.size()) {
    uint16_t ka = containers_[i].key;
    uint16_t kb = other.containers_[j].key;
    if (ka < kb) {
      ++i;
    } else if (ka > kb) {
      ++j;
    } else {
      if (ContainersIntersect(containers_[i], other.containers_[j])) {
        return true;
      }
      ++i;
      ++j;
    }
  }
  return false;
}

bool Bitmap::IsSubsetOf(const Bitmap& other) const {
  if (cardinality_ > other.cardinality_) return false;
  size_t j = 0;
  for (const Container& c : containers_) {
    while (j < other.containers_.size() && other.containers_[j].key < c.key) {
      ++j;
    }
    if (j == other.containers_.size() || other.containers_[j].key != c.key) {
      return false;
    }
    if (!ContainerSubset(c, other.containers_[j])) return false;
  }
  return true;
}

Bitmap Bitmap::And(const Bitmap& a, const Bitmap& b) {
  Bitmap out;
  size_t i = 0, j = 0;
  while (i < a.containers_.size() && j < b.containers_.size()) {
    uint16_t ka = a.containers_[i].key;
    uint16_t kb = b.containers_[j].key;
    if (ka < kb) {
      ++i;
    } else if (ka > kb) {
      ++j;
    } else {
      Container c = AndContainers(a.containers_[i], b.containers_[j]);
      if (c.cardinality > 0) {
        out.cardinality_ += c.cardinality;
        out.containers_.push_back(std::move(c));
      }
      ++i;
      ++j;
    }
  }
  return out;
}

Bitmap Bitmap::Or(const Bitmap& a, const Bitmap& b) {
  Bitmap out;
  size_t i = 0, j = 0;
  while (i < a.containers_.size() || j < b.containers_.size()) {
    if (j == b.containers_.size() ||
        (i < a.containers_.size() &&
         a.containers_[i].key < b.containers_[j].key)) {
      out.containers_.push_back(a.containers_[i]);
      out.cardinality_ += a.containers_[i].cardinality;
      ++i;
    } else if (i == a.containers_.size() ||
               b.containers_[j].key < a.containers_[i].key) {
      out.containers_.push_back(b.containers_[j]);
      out.cardinality_ += b.containers_[j].cardinality;
      ++j;
    } else {
      Container c = OrContainers(a.containers_[i], b.containers_[j]);
      out.cardinality_ += c.cardinality;
      out.containers_.push_back(std::move(c));
      ++i;
      ++j;
    }
  }
  return out;
}

Bitmap Bitmap::AndNot(const Bitmap& a, const Bitmap& b) {
  Bitmap out;
  size_t j = 0;
  for (const Container& c : a.containers_) {
    while (j < b.containers_.size() && b.containers_[j].key < c.key) ++j;
    if (j < b.containers_.size() && b.containers_[j].key == c.key) {
      Container diff = AndNotContainers(c, b.containers_[j]);
      if (diff.cardinality > 0) {
        out.cardinality_ += diff.cardinality;
        out.containers_.push_back(std::move(diff));
      }
    } else {
      out.containers_.push_back(c);
      out.cardinality_ += c.cardinality;
    }
  }
  return out;
}

void Bitmap::AndWith(const Bitmap& other) { *this = And(*this, other); }
void Bitmap::OrWith(const Bitmap& other) { *this = Or(*this, other); }
void Bitmap::AndNotWith(const Bitmap& other) { *this = AndNot(*this, other); }

Bitmap Bitmap::AndMany(std::span<const Bitmap* const> inputs) {
  if (inputs.empty()) return Bitmap();
  std::vector<const Bitmap*> sorted(inputs.begin(), inputs.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const Bitmap* a, const Bitmap* b) {
              return a->Cardinality() < b->Cardinality();
            });
  Bitmap result = *sorted[0];
  for (size_t i = 1; i < sorted.size() && !result.Empty(); ++i) {
    result.AndWith(*sorted[i]);
  }
  return result;
}

Bitmap Bitmap::OrMany(std::span<const Bitmap* const> inputs) {
  if (inputs.empty()) return Bitmap();
  // Balanced pairwise reduction keeps intermediate results small.
  std::vector<Bitmap> level;
  level.reserve((inputs.size() + 1) / 2);
  for (size_t i = 0; i + 1 < inputs.size(); i += 2) {
    level.push_back(Or(*inputs[i], *inputs[i + 1]));
  }
  if (inputs.size() % 2 == 1) level.push_back(*inputs.back());
  while (level.size() > 1) {
    std::vector<Bitmap> next;
    next.reserve((level.size() + 1) / 2);
    for (size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(Or(level[i], level[i + 1]));
    }
    if (level.size() % 2 == 1) next.push_back(std::move(level.back()));
    level = std::move(next);
  }
  return std::move(level.front());
}

void Bitmap::RunOptimize() {
  for (Container& c : containers_) c.TryRunEncode();
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

void Bitmap::Serialize(ByteSink& sink) const {
  // No total-cardinality word: it would only repeat the per-container
  // cardinalities (each validated on its own), and across the millions of
  // tiny per-node bitmaps of a CSR graph those 8 bytes are several percent
  // of the whole snapshot.
  sink.WriteU32(static_cast<uint32_t>(containers_.size()));
  for (const Container& c : containers_) {
    sink.WriteU16(c.key);
    sink.WriteU8(static_cast<uint8_t>(c.kind));
    sink.WriteU32(c.cardinality);
    if (c.kind == Container::Kind::kRun) {
      sink.WriteU16(static_cast<uint16_t>(c.NumRuns()));
    }
    // Padding before each payload block lets the zero-copy loader borrow a
    // correctly aligned typed pointer straight into the snapshot mapping.
    sink.PadTo8();
    if (c.kind == Container::Kind::kBitset) {
      sink.WriteRaw(c.words.data(), c.words.size() * sizeof(uint64_t));
    } else {
      sink.WriteRaw(c.array.data(), c.array.size() * sizeof(uint16_t));
    }
  }
}

Bitmap Bitmap::Deserialize(ByteSource& src) {
  Bitmap out;
  uint32_t num_containers = src.ReadU32();
  if (!src.ok()) return Bitmap();
  out.containers_.reserve(num_containers);
  uint64_t seen = 0;
  for (uint32_t i = 0; i < num_containers; ++i) {
    // One fused read of the 7-byte container header (u16 key, u8 kind,
    // u32 cardinality) — this loop runs once per container across millions
    // of bitmaps on a big graph load.
    uint8_t hdr[7];
    if (!src.ReadRaw(hdr, sizeof(hdr))) return Bitmap();
    Container c;
    c.key = static_cast<uint16_t>(hdr[0] | (hdr[1] << 8));
    uint8_t kind = hdr[2];
    std::memcpy(&c.cardinality, hdr + 3, sizeof(uint32_t));
    if (!out.containers_.empty() && c.key <= out.containers_.back().key) {
      src.Fail("bitmap containers out of order");
      return Bitmap();
    }
    if (c.cardinality == 0 || c.cardinality > 65536) {
      src.Fail("bitmap container cardinality out of range");
      return Bitmap();
    }
    if (kind == static_cast<uint8_t>(Container::Kind::kArray)) {
      if (c.cardinality > kArrayCapacity) {
        src.Fail("bitmap array container too large");
        return Bitmap();
      }
      c.kind = Container::Kind::kArray;
      src.ReadBlock(c.cardinality, &c.array);
    } else if (kind == static_cast<uint8_t>(Container::Kind::kBitset)) {
      c.kind = Container::Kind::kBitset;
      src.ReadBlock(kWordsPerBitset, &c.words);
      if (!src.ok()) return Bitmap();
      uint32_t card = 0;
      for (uint64_t w : c.words) {
        card += static_cast<uint32_t>(std::popcount(w));
      }
      if (card != c.cardinality) {
        src.Fail("bitmap bitset cardinality mismatch");
        return Bitmap();
      }
    } else if (kind == static_cast<uint8_t>(Container::Kind::kRun)) {
      c.kind = Container::Kind::kRun;
      uint16_t num_runs = src.ReadU16();
      if (num_runs == 0 || num_runs > kMaxRunsPerContainer) {
        src.Fail("bitmap run container run count out of range");
        return Bitmap();
      }
      src.ReadBlock(size_t{2} * num_runs, &c.array);
      if (!src.ok()) return Bitmap();
      // Validate canonical form so every downstream kernel can trust it:
      // strictly ascending, non-adjacent runs that stay within the chunk
      // and sum to the declared cardinality. A borrowed (mmap'd) payload is
      // validated in place without decoding.
      uint64_t run_card = 0;
      int64_t prev_end = -2;
      for (size_t r = 0; r < c.NumRuns(); ++r) {
        uint32_t s = c.RunStart(r);
        uint32_t e = c.RunEnd(r);
        if (static_cast<int64_t>(s) <= prev_end + 1 || e > 65535) {
          src.Fail("bitmap run container not canonical");
          return Bitmap();
        }
        run_card += e - s + 1;
        prev_end = e;
      }
      if (run_card != c.cardinality) {
        src.Fail("bitmap run container cardinality mismatch");
        return Bitmap();
      }
    } else {
      src.Fail("unknown bitmap container kind");
      return Bitmap();
    }
    if (!src.ok()) return Bitmap();
    seen += c.cardinality;
    out.containers_.push_back(std::move(c));
  }
  out.cardinality_ = seen;
  return out;
}

// ---------------------------------------------------------------------------
// Iteration and comparison
// ---------------------------------------------------------------------------

void Bitmap::ForEach(const std::function<void(uint32_t)>& fn) const {
  for (const Container& c : containers_) {
    switch (c.kind) {
      case Container::Kind::kArray:
        for (uint16_t low : c.array) fn(Combine(c.key, low));
        break;
      case Container::Kind::kRun:
        for (size_t i = 0; i < c.NumRuns(); ++i) {
          for (uint32_t v = c.RunStart(i); v <= c.RunEnd(i); ++v) {
            fn(Combine(c.key, static_cast<uint16_t>(v)));
          }
        }
        break;
      case Container::Kind::kBitset:
        for (uint32_t w = 0; w < kWordsPerBitset; ++w) {
          uint64_t word = c.words[w];
          while (word != 0) {
            int bit = std::countr_zero(word);
            fn(Combine(c.key, static_cast<uint16_t>((w << 6) | bit)));
            word &= word - 1;
          }
        }
        break;
    }
  }
}

std::vector<uint32_t> Bitmap::ToVector() const {
  std::vector<uint32_t> out;
  out.reserve(cardinality_);
  ForEach([&out](uint32_t v) { out.push_back(v); });
  return out;
}

bool Bitmap::operator==(const Bitmap& other) const {
  if (cardinality_ != other.cardinality_) return false;
  if (containers_.size() != other.containers_.size()) return false;
  for (size_t i = 0; i < containers_.size(); ++i) {
    const Container& a = containers_[i];
    const Container& b = other.containers_[i];
    if (a.key != b.key || a.cardinality != b.cardinality) return false;
    if (a.kind == b.kind) {
      // Arrays are sorted and runs canonical, so payload equality is set
      // equality for both span-backed kinds.
      if (a.kind == Container::Kind::kBitset) {
        if (a.words != b.words) return false;
      } else {
        if (a.array != b.array) return false;
      }
    } else {
      if (!ContainerSubset(a, b)) return false;  // same cardinality => equal
    }
  }
  return true;
}

size_t Bitmap::MemoryBytes() const {
  size_t bytes = sizeof(Bitmap) + containers_.capacity() * sizeof(Container);
  for (const Container& c : containers_) {
    bytes += c.array.OwnedHeapBytes();
    bytes += c.words.OwnedHeapBytes();
  }
  return bytes;
}

void Bitmap::AccumulateStats(BitmapContainerStats* stats) const {
  for (const Container& c : containers_) {
    uint64_t encoded = 0;
    bool borrowed = false;
    switch (c.kind) {
      case Container::Kind::kArray:
        ++stats->array_containers;
        encoded = uint64_t{2} * c.cardinality;
        borrowed = c.array.borrowed();
        break;
      case Container::Kind::kBitset:
        ++stats->bitset_containers;
        encoded = kBitsetBytes;
        borrowed = c.words.borrowed();
        break;
      case Container::Kind::kRun:
        ++stats->run_containers;
        encoded = uint64_t{kBytesPerRun} * c.NumRuns();
        borrowed = c.array.borrowed();
        break;
    }
    if (borrowed) ++stats->borrowed_containers;
    stats->encoded_bytes += encoded;
    stats->expanded_bytes += DecodedBytes(c.cardinality);
  }
}

}  // namespace rigpm
