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

}  // namespace

// ---------------------------------------------------------------------------
// Container helpers
// ---------------------------------------------------------------------------

bool Bitmap::Container::Contains(uint16_t low) const {
  if (kind == Kind::kArray) {
    return std::binary_search(array.begin(), array.end(), low);
  }
  return (words[low >> 6] >> (low & 63)) & 1;
}

void Bitmap::Container::ToBitset() {
  std::vector<uint64_t> w(kWordsPerBitset, 0);
  for (uint16_t low : array) {
    w[low >> 6] |= uint64_t{1} << (low & 63);
  }
  words.Mutable() = std::move(w);
  array.Reset();
  kind = Kind::kBitset;
}

void Bitmap::Container::ToArrayIfSmall() {
  if (cardinality > kArrayCapacity) return;
  std::vector<uint16_t> a;
  a.reserve(cardinality);
  for (uint32_t w = 0; w < kWordsPerBitset; ++w) {
    uint64_t word = words[w];
    while (word != 0) {
      int bit = std::countr_zero(word);
      a.push_back(static_cast<uint16_t>((w << 6) | bit));
      word &= word - 1;
    }
  }
  array.Mutable() = std::move(a);
  words.Reset();
  kind = Kind::kArray;
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Bitmap::Bitmap(std::initializer_list<uint32_t> values) {
  for (uint32_t v : values) Add(v);
}

Bitmap Bitmap::FromSorted(std::span<const uint32_t> sorted_values) {
  Bitmap result;
  size_t i = 0;
  while (i < sorted_values.size()) {
    uint16_t key = HighBits(sorted_values[i]);
    size_t j = i;
    while (j < sorted_values.size() && HighBits(sorted_values[j]) == key) ++j;
    Container c;
    c.key = key;
    c.cardinality = static_cast<uint32_t>(j - i);
    if (c.cardinality <= kArrayCapacity) {
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
  // At least one bitset: the result holds more than kArrayCapacity values,
  // so it is a bitset too.
  out.kind = Kind::kBitset;
  std::vector<uint64_t>& words = out.words.Mutable();
  words.assign(kWordsPerBitset, 0);
  auto blend = [&words](const Container& c) {
    if (c.kind == Kind::kBitset) {
      for (uint32_t w = 0; w < kWordsPerBitset; ++w) words[w] |= c.words[w];
    } else {
      for (uint16_t low : c.array) {
        words[low >> 6] |= uint64_t{1} << (low & 63);
      }
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
  out.kind = Kind::kBitset;
  out.words = a.words;  // deep copy (a may borrow from a snapshot mapping)
  std::vector<uint64_t>& words = out.words.Mutable();
  if (b.kind == Kind::kBitset) {
    for (uint32_t w = 0; w < kWordsPerBitset; ++w) words[w] &= ~b.words[w];
  } else {
    for (uint16_t low : b.array) {
      words[low >> 6] &= ~(uint64_t{1} << (low & 63));
    }
  }
  uint32_t card = 0;
  for (uint32_t w = 0; w < kWordsPerBitset; ++w) {
    card += static_cast<uint32_t>(std::popcount(words[w]));
  }
  out.cardinality = card;
  out.ToArrayIfSmall();
  return out;
}

// ---------------------------------------------------------------------------
// Bitmap-level set algebra
// ---------------------------------------------------------------------------

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

void Bitmap::FilterByContainer(const Container& c, size_t begin,
                               std::vector<uint32_t>* out) {
  uint32_t* const first = out->data() + begin;
  uint32_t* const last = out->data() + out->size();
  uint32_t* kept = first;
  if (c.kind == Container::Kind::kBitset) {
    const uint64_t* words = c.words.data();
    for (const uint32_t* v = first; v != last; ++v) {
      const uint16_t low = LowBits(*v);
      if ((words[low >> 6] >> (low & 63)) & 1) *kept++ = *v;
    }
  } else {
    // Both sides ascend: a merge walk, or galloping through `c` when it is
    // much longer than the range (as IntersectArrays does).
    const uint16_t* probe = c.array.begin();
    const uint16_t* const probe_end = c.array.end();
    const bool gallop = static_cast<size_t>(probe_end - probe) >
                        32 * static_cast<size_t>(last - first);
    for (const uint32_t* v = first; v != last && probe != probe_end; ++v) {
      const uint16_t low = LowBits(*v);
      if (gallop) {
        probe = std::lower_bound(probe, probe_end, low);
      } else {
        while (probe != probe_end && *probe < low) ++probe;
      }
      if (probe != probe_end && *probe == low) *kept++ = *v;
    }
  }
  out->resize(static_cast<size_t>(kept - out->data()));
}

void Bitmap::AndManyInto(std::span<const Bitmap* const> inputs,
                         std::vector<uint32_t>* out) {
  out->clear();
  if (inputs.empty()) return;
  const Bitmap* smallest = *std::min_element(
      inputs.begin(), inputs.end(), [](const Bitmap* a, const Bitmap* b) {
        return a->Cardinality() < b->Cardinality();
      });
  auto append = [out](uint32_t value) {
    out->push_back(value);
    return true;
  };
  for (const Container& c : smallest->containers_) {
    const size_t begin = out->size();
    VisitContainer(c, append);
    // The smallest input, however often it is listed, filters nothing.
    for (const Bitmap* other : inputs) {
      if (other == smallest) continue;
      const size_t idx = other->FindContainer(c.key);
      if (idx == other->containers_.size()) {
        out->resize(begin);
        break;
      }
      FilterByContainer(other->containers_[idx], begin, out);
      if (out->size() == begin) break;
    }
  }
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

void Bitmap::Serialize(ByteSink& sink) const {
  // No total-cardinality word: it would only repeat the per-container
  // cardinalities, each validated on its own.
  sink.WriteU32(static_cast<uint32_t>(containers_.size()));
  for (const Container& c : containers_) {
    sink.WriteU16(c.key);
    sink.WriteU8(static_cast<uint8_t>(c.kind));
    sink.WriteU32(c.cardinality);
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
  // Each container starts with a 7-byte header (u16 key, u8 kind, u32
  // cardinality), and keys are distinct 16-bit values.
  constexpr size_t kContainerHeaderBytes = 7;
  Bitmap out;
  uint32_t num_containers = src.ReadU32();
  if (!src.ok()) return Bitmap();
  // Bound the count before reserving: a crafted count must fail softly,
  // not abort the process with a huge allocation.
  if (num_containers > 65536 ||
      num_containers > src.remaining() / kContainerHeaderBytes) {
    src.Fail("bitmap container count out of range");
    return Bitmap();
  }
  out.containers_.reserve(num_containers);
  uint64_t seen = 0;
  for (uint32_t i = 0; i < num_containers; ++i) {
    // One fused read of the container header — this loop runs once per
    // container across millions of bitmaps on a big graph load.
    uint8_t hdr[kContainerHeaderBytes];
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
      src.ReadBlock(c.cardinality, &c.array);
    } else if (kind == static_cast<uint8_t>(Container::Kind::kBitset)) {
      // The kernels rely on the kind following from the cardinality.
      if (c.cardinality <= kArrayCapacity) {
        src.Fail("non-canonical bitmap container (bitset of <= 4096 values)");
        return Bitmap();
      }
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
    // Equal cardinality means equal kind, and arrays are sorted, so payload
    // equality is set equality.
    if (a.kind == Container::Kind::kBitset) {
      if (a.words != b.words) return false;
    } else {
      if (a.array != b.array) return false;
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
    if (c.kind == Container::Kind::kArray) {
      ++stats->array_containers;
      stats->encoded_bytes += uint64_t{2} * c.cardinality;
      if (c.array.borrowed()) ++stats->borrowed_containers;
    } else {
      ++stats->bitset_containers;
      stats->encoded_bytes += kBitsetBytes;
      if (c.words.borrowed()) ++stats->borrowed_containers;
    }
  }
}

}  // namespace rigpm
