#include "bitmap/bitmap.h"

#include <algorithm>
#include <bit>

namespace rigpm {

namespace {

constexpr uint32_t kWordsPerBitset = 1024;  // 1024 * 64 = 65536 bits

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
  words.assign(kWordsPerBitset, 0);
  for (uint16_t low : array) {
    words[low >> 6] |= uint64_t{1} << (low & 63);
  }
  array = std::vector<uint16_t>();
  kind = Kind::kBitset;
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
      c.array.reserve(c.cardinality);
      for (size_t k = i; k < j; ++k) {
        c.array.push_back(LowBits(sorted_values[k]));
      }
    } else {
      c.kind = Container::Kind::kBitset;
      c.words.assign(kWordsPerBitset, 0);
      for (size_t k = i; k < j; ++k) {
        uint16_t low = LowBits(sorted_values[k]);
        c.words[low >> 6] |= uint64_t{1} << (low & 63);
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
  if (c.kind == Container::Kind::kArray) {
    auto it = std::lower_bound(c.array.begin(), c.array.end(), low);
    if (it != c.array.end() && *it == low) return;
    c.array.insert(it, low);
    ++c.cardinality;
    ++cardinality_;
    if (c.cardinality > kArrayCapacity) c.ToBitset();
  } else {
    uint64_t& word = c.words[low >> 6];
    uint64_t mask = uint64_t{1} << (low & 63);
    if (word & mask) return;
    word |= mask;
    ++c.cardinality;
    ++cardinality_;
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

Bitmap::Container Bitmap::OrContainers(const Container& a, const Container& b) {
  Container out;
  out.key = a.key;
  using Kind = Container::Kind;
  if (a.kind == Kind::kArray && b.kind == Kind::kArray) {
    out.array.reserve(a.array.size() + b.array.size());
    std::set_union(a.array.begin(), a.array.end(), b.array.begin(),
                   b.array.end(), std::back_inserter(out.array));
    out.cardinality = static_cast<uint32_t>(out.array.size());
    if (out.cardinality > kArrayCapacity) out.ToBitset();
    return out;
  }
  // At least one bitset: the result holds more than kArrayCapacity values,
  // so it is a bitset too.
  out.kind = Kind::kBitset;
  std::vector<uint64_t>& words = out.words;
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

// ---------------------------------------------------------------------------
// Bitmap-level set algebra
// ---------------------------------------------------------------------------

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

void Bitmap::OrWith(const Bitmap& other) { *this = Or(*this, other); }

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
    // much longer than the range.
    const uint16_t* probe = c.array.data();
    const uint16_t* const probe_end = probe + c.array.size();
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
    // equality is set equality. A container of the wrong kind on either side
    // has an empty payload of the kind compared, so it compares unequal.
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
    bytes += c.array.capacity() * sizeof(uint16_t);
    bytes += c.words.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

}  // namespace rigpm
