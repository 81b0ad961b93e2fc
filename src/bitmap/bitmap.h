#ifndef RIGPM_BITMAP_BITMAP_H_
#define RIGPM_BITMAP_BITMAP_H_

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <type_traits>
#include <vector>

namespace rigpm {

/// A roaring-style compressed bitmap over 32-bit unsigned integers.
///
/// The value space is partitioned into 2^16-element chunks keyed by the high
/// 16 bits. Each populated chunk is stored in one of two representations —
/// the container design of RoaringBitmap (Chambi et al., SPE 2016), which
/// the paper uses to store candidate occurrence sets and the RIG's
/// per-query-edge adjacency (Section 6). The data graph's adjacency stays in
/// sorted CSR rows (graph/graph.h); only its label inverted lists are also
/// bitmaps.
///  * array  — sorted uint16 low bits (sparse, <= kArrayCapacity values,
///             2 bytes/value);
///  * bitset — 1024 64-bit words (dense, > kArrayCapacity values, fixed
///             8 KiB).
///
/// As in the paper, every bitmap is built in memory and never persisted: a
/// snapshot load rebuilds the label bitmaps from the labels.
///
/// The kind follows from the cardinality alone: a container of
/// <= kArrayCapacity values is an array and a larger one a bitset. No
/// operation takes a value out of a container: `Add` and `Or` only grow one,
/// `Clear` drops them all, and a set that shrinks is rebuilt with
/// `FromSorted`. So the only kind change is an array promoting to a bitset
/// when it grows past kArrayCapacity. Equal cardinality therefore means
/// equal kind, and the union needs kernels for only three kind pairings:
/// array x array, bitset x bitset and the mixed pair.
///
/// The class provides the operations the RIG framework needs:
///  * point insertion and membership,
///  * OR, copying and in place (the TC baseline's closure rows),
///  * multiway AND into a caller-owned sorted vector (`AndManyInto`, the
///    only intersection: the one behind each MJoin step, "FastAggregation"
///    in the RoaringBitmap API, without an intermediate bitmap),
///  * batch iteration (`ForEach`, `ToVector`) that decodes container-at-a-
///    time, mirroring the batch iterators the paper found 2-10x faster than
///    per-element iterators.
class Bitmap {
 public:
  /// Maximum number of values an array container holds; a container with
  /// more is a bitset.
  static constexpr uint32_t kArrayCapacity = 4096;

  Bitmap() = default;
  Bitmap(std::initializer_list<uint32_t> values);

  Bitmap(const Bitmap&) = default;
  Bitmap& operator=(const Bitmap&) = default;
  Bitmap(Bitmap&&) noexcept = default;
  Bitmap& operator=(Bitmap&&) noexcept = default;

  /// Builds a bitmap from a strictly increasing sequence of values, one
  /// container per chunk. This is the fast path used when converting sorted
  /// node lists (label inverted lists, filtered candidates).
  static Bitmap FromSorted(std::span<const uint32_t> sorted_values);

  void Add(uint32_t value);
  bool Contains(uint32_t value) const;

  uint64_t Cardinality() const { return cardinality_; }
  bool Empty() const { return cardinality_ == 0; }
  void Clear();

  void OrWith(const Bitmap& other);
  static Bitmap Or(const Bitmap& a, const Bitmap& b);

  /// Multiway intersection: replaces `*out` with the values present in
  /// every input, ascending (empty for an empty input list). The input of
  /// least cardinality leads: each of its containers is decoded into `*out`
  /// and the other inputs, in the given order, filter that range in place,
  /// so passing them smallest-first shrinks it fastest. Makes no heap
  /// allocation once `*out` has the capacity for the smallest input.
  static void AndManyInto(std::span<const Bitmap* const> inputs,
                          std::vector<uint32_t>* out);

  /// Invokes `fn(value)` for every element in increasing order. `fn` may
  /// return bool: false stops the walk, and ForEach then returns false; it
  /// returns true when every element was visited.
  template <typename Fn>
  bool ForEach(Fn&& fn) const;

  /// Decodes the whole bitmap into a sorted vector.
  std::vector<uint32_t> ToVector() const;

  bool operator==(const Bitmap& other) const;
  bool operator!=(const Bitmap& other) const { return !(*this == other); }

  /// Approximate heap footprint in bytes (used by RIG size accounting and
  /// daemon RSS attribution).
  size_t MemoryBytes() const;

 private:
  // A single 2^16-element chunk. `kind` selects which representation is
  // active; the inactive storage is kept empty.
  //
  // kArray:  `array` holds `cardinality` <= kArrayCapacity sorted low bits.
  // kBitset: `words` holds 1024 words with `cardinality` > kArrayCapacity
  //          bits set.
  struct Container {
    enum class Kind : uint8_t { kArray, kBitset };

    uint16_t key = 0;
    Kind kind = Kind::kArray;
    uint32_t cardinality = 0;
    std::vector<uint16_t> array;  // when kind == kArray
    std::vector<uint64_t> words;  // 1024 words, when kind == kBitset

    bool Contains(uint16_t low) const;

    // The one kind change: converts an array that grew past kArrayCapacity.
    void ToBitset();
  };

  // Returns the index of the container with `key`, or containers_.size().
  size_t FindContainer(uint16_t key) const;
  Container& GetOrCreateContainer(uint16_t key);

  // Calls `visit(value)` for the values of `c` in increasing order until it
  // returns false; returns false iff it did.
  template <typename Visit>
  static bool VisitContainer(const Container& c, Visit& visit);

  // Keeps the values of (*out)[begin..] — one chunk's, ascending — that `c`
  // (the container of the same chunk) holds.
  static void FilterByContainer(const Container& c, size_t begin,
                                std::vector<uint32_t>* out);
  static Container OrContainers(const Container& a, const Container& b);

  std::vector<Container> containers_;  // sorted by key
  uint64_t cardinality_ = 0;
};

template <typename Visit>
bool Bitmap::VisitContainer(const Container& c, Visit& visit) {
  const uint32_t high = uint32_t{c.key} << 16;
  if (c.kind == Container::Kind::kArray) {
    for (uint16_t low : c.array) {
      if (!visit(high | low)) return false;
    }
    return true;
  }
  const uint64_t* words = c.words.data();
  const size_t num_words = c.words.size();
  for (uint32_t w = 0; w < num_words; ++w) {
    for (uint64_t word = words[w]; word != 0; word &= word - 1) {
      const uint32_t bit = static_cast<uint32_t>(std::countr_zero(word));
      if (!visit(high | (w << 6) | bit)) return false;
    }
  }
  return true;
}

template <typename Fn>
bool Bitmap::ForEach(Fn&& fn) const {
  auto visit = [&fn](uint32_t value) -> bool {
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&, uint32_t>>) {
      fn(value);
      return true;
    } else {
      return static_cast<bool>(fn(value));
    }
  };
  for (const Container& c : containers_) {
    if (!VisitContainer(c, visit)) return false;
  }
  return true;
}

}  // namespace rigpm

#endif  // RIGPM_BITMAP_BITMAP_H_
