#ifndef RIGPM_BITMAP_BITMAP_H_
#define RIGPM_BITMAP_BITMAP_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <vector>

#include "util/owned_span.h"
#include "util/serde.h"

namespace rigpm {

/// Per-kind container census of a bitmap (or a whole section of bitmaps):
/// how many containers of each representation, how many still borrow their
/// encoded payload from a snapshot mapping, and the encoded-vs-expanded
/// byte footprint. `encoded_bytes` is the native payload size (what a
/// snapshot stores and what a borrowed container costs in mapped bytes);
/// `expanded_bytes` is what the same data would occupy fully decoded to
/// array/bitset form — the saving lazy decode preserves until a mutating
/// touch. Used by `rigpm_cli snapshot --inspect` and the memory benches.
struct BitmapContainerStats {
  uint64_t array_containers = 0;
  uint64_t bitset_containers = 0;
  uint64_t run_containers = 0;
  uint64_t borrowed_containers = 0;  // payload borrowed from a mapping
  uint64_t encoded_bytes = 0;
  uint64_t expanded_bytes = 0;

  uint64_t TotalContainers() const {
    return array_containers + bitset_containers + run_containers;
  }
  void Accumulate(const BitmapContainerStats& other) {
    array_containers += other.array_containers;
    bitset_containers += other.bitset_containers;
    run_containers += other.run_containers;
    borrowed_containers += other.borrowed_containers;
    encoded_bytes += other.encoded_bytes;
    expanded_bytes += other.expanded_bytes;
  }
};

/// A roaring-style compressed bitmap over 32-bit unsigned integers.
///
/// The value space is partitioned into 2^16-element chunks keyed by the high
/// 16 bits. Each populated chunk is stored in one of three representations,
/// chosen per chunk by byte footprint — the container design of
/// RoaringBitmap (Chambi et al., SPE 2016), which the paper uses to store
/// candidate occurrence sets and adjacency lists (Section 6):
///  * array  — sorted uint16 low bits (sparse, <= kArrayCapacity values,
///             2 bytes/value);
///  * bitset — 1024 64-bit words (dense, fixed 8 KiB);
///  * run    — interleaved (start, length-1) uint16 pairs over maximal
///             consecutive value runs (clustered, 4 bytes/run) — the
///             representation CSR adjacency of generated graphs, label
///             inverted lists of contiguously-labeled nodes, and
///             transitive-closure rows collapse into.
///
/// Representation heuristics:
///  * construction (FromSorted / FromRange / Deserialize) and RunOptimize()
///    pick the smallest encoding per chunk (run only when strictly smaller
///    than both alternatives);
///  * point mutation of an array/bitset keeps its kind (array promotes to
///    bitset past kArrayCapacity, bitset demotes back when it shrinks
///    under it); point mutation of a run container first decompresses it
///    to array/bitset — runs are a build/load-time encoding, not an
///    update-time one;
///  * the binary set operations read every representation natively
///    (container-vs-container kernels for all nine kind pairings) and
///    produce run output only where it falls out for free (run x run);
///    call RunOptimize() to re-compress a bitmap built by many operations.
///
/// Zero-copy snapshots: a bitmap loaded from an mmap'd snapshot keeps
/// its array and run payloads *encoded inside the mapping* — reads operate
/// on the borrowed encoded form directly, and the first mutating touch of a
/// container materializes a private decoded copy (util/owned_span.h). RSS
/// therefore tracks the compressed snapshot size, not the decoded size.
///
/// The class provides the operations the RIG framework needs:
///  * point updates and membership,
///  * destructive and non-destructive AND / OR / ANDNOT,
///  * `Intersects` (existence-only AND, with early exit),
///  * multiway AND/OR ("FastAggregation" in the RoaringBitmap API),
///  * batch iteration (`ForEach`, `ToVector`) that decodes container-at-a-
///    time, mirroring the batch iterators the paper found 2-10x faster than
///    per-element iterators.
class Bitmap {
 public:
  /// Maximum number of values an array container holds before it is promoted
  /// to a bitset container.
  static constexpr uint32_t kArrayCapacity = 4096;

  /// Serialized payload bytes of one run (start + length-1, two uint16s).
  static constexpr uint32_t kBytesPerRun = 4;

  /// Hard structural bound on runs per container (alternating bits); the
  /// encoding heuristics never produce more than 2047 (8 KiB / 4 - 1), but
  /// the deserializer validates against this bound.
  static constexpr uint32_t kMaxRunsPerContainer = 32768;

  Bitmap() = default;
  Bitmap(std::initializer_list<uint32_t> values);

  Bitmap(const Bitmap&) = default;
  Bitmap& operator=(const Bitmap&) = default;
  Bitmap(Bitmap&&) noexcept = default;
  Bitmap& operator=(Bitmap&&) noexcept = default;

  /// Builds a bitmap from a strictly increasing sequence of values, choosing
  /// the best container representation per chunk. This is the fast path used
  /// when converting CSR adjacency ranges.
  static Bitmap FromSorted(std::span<const uint32_t> sorted_values);

  /// Builds a bitmap from an arbitrary (possibly duplicated) sequence.
  static Bitmap FromUnsorted(std::span<const uint32_t> values);

  /// Builds the bitmap {0, 1, ..., n - 1} directly as run containers —
  /// O(n / 2^16) time and memory, not O(n).
  static Bitmap FromRange(uint32_t n);

  void Add(uint32_t value);
  void Remove(uint32_t value);
  bool Contains(uint32_t value) const;

  uint64_t Cardinality() const { return cardinality_; }
  bool Empty() const { return cardinality_ == 0; }
  void Clear();

  /// Smallest element. Precondition: !Empty().
  uint32_t First() const;

  /// True iff the two bitmaps share at least one element. Exits on the first
  /// hit, so this is much cheaper than materializing the intersection.
  bool Intersects(const Bitmap& other) const;

  /// True iff every element of this bitmap is contained in `other`.
  bool IsSubsetOf(const Bitmap& other) const;

  void AndWith(const Bitmap& other);
  void OrWith(const Bitmap& other);
  void AndNotWith(const Bitmap& other);

  static Bitmap And(const Bitmap& a, const Bitmap& b);
  static Bitmap Or(const Bitmap& a, const Bitmap& b);
  static Bitmap AndNot(const Bitmap& a, const Bitmap& b);

  /// Multiway intersection. Inputs are intersected smallest-first so the
  /// running result shrinks as fast as possible; returns empty on empty
  /// input list. Mirrors RoaringBitmap's FastAggregation::and.
  static Bitmap AndMany(std::span<const Bitmap* const> inputs);

  /// Multiway union (pairwise balanced reduction).
  static Bitmap OrMany(std::span<const Bitmap* const> inputs);

  /// Invokes `fn(value)` for every element in increasing order.
  void ForEach(const std::function<void(uint32_t)>& fn) const;

  /// Decodes the whole bitmap into a sorted vector.
  std::vector<uint32_t> ToVector() const;

  bool operator==(const Bitmap& other) const;
  bool operator!=(const Bitmap& other) const { return !(*this == other); }

  /// Re-encodes every container into its smallest representation (run
  /// containers where 4*runs beats both the array and bitset footprint).
  /// Cheap — one scan per container — and idempotent; call after building a
  /// bitmap through many mutations/operations to reclaim memory.
  void RunOptimize();

  /// Appends a binary image to `sink`, container-at-a-time: each container
  /// is dumped as a single raw block in its native encoding, so
  /// (de)serialization is memcpy-bound rather than element-at-a-time (the
  /// property the RoaringBitmap design is built for). Run containers are
  /// emitted natively. Read back with Deserialize.
  void Serialize(ByteSink& sink) const;

  /// Decodes an image written by Serialize. On malformed input `src.ok()`
  /// turns false (with a description in `src.error()`) and the returned
  /// bitmap is empty. In zero-copy mode the container payloads borrow from
  /// the source's storage: whoever owns this bitmap must retain
  /// `src.storage()` (Graph and friends do). Array and run containers stay
  /// in their encoded on-disk form — reads work on that form directly, and
  /// mutating a borrowed container transparently materializes a private
  /// decoded copy first; copying a bitmap always deep-copies (preserving
  /// each container's encoding).
  static Bitmap Deserialize(ByteSource& src);

  /// Approximate *owned* heap footprint in bytes (used by RIG size
  /// accounting and daemon RSS attribution). Borrowed container payloads —
  /// encoded views into a shared snapshot mapping — are accounted to the
  /// mapping, not to this bitmap, so a freshly mmap-loaded bitmap reports
  /// only its container-index overhead.
  size_t MemoryBytes() const;

  /// Number of internal containers (exposed for tests).
  size_t ContainerCount() const { return containers_.size(); }

  /// Accumulates this bitmap's container census into `stats`.
  void AccumulateStats(BitmapContainerStats* stats) const;

 private:
  // A single 2^16-element chunk. `kind` selects which representation is
  // active; the inactive storage is kept empty. The payloads live in
  // OwnedOrBorrowedSpan so a snapshot load can point them straight into the
  // file mapping instead of copying (util/owned_span.h).
  //
  // kArray:  `array` holds `cardinality` sorted low-16-bit values.
  // kBitset: `words` holds 1024 words.
  // kRun:    `array` holds 2 * NumRuns() values, interleaved
  //          (start, length-1) pairs in canonical form: sorted by start,
  //          non-overlapping, non-adjacent (each start > previous end + 1),
  //          every end <= 65535. Canonical form makes span equality
  //          coincide with set equality.
  struct Container {
    enum class Kind : uint8_t { kArray, kBitset, kRun };

    uint16_t key = 0;
    Kind kind = Kind::kArray;
    uint32_t cardinality = 0;
    OwnedOrBorrowedSpan<uint16_t> array;  // kArray values or kRun pairs
    OwnedOrBorrowedSpan<uint64_t> words;  // 1024 words, when kind == kBitset

    bool Contains(uint16_t low) const;

    // Run accessors (kind == kRun). Ends are uint32 so a run ending at
    // 65535 does not wrap.
    size_t NumRuns() const { return array.size() / 2; }
    uint32_t RunStart(size_t i) const { return array[2 * i]; }
    uint32_t RunEnd(size_t i) const {
      return static_cast<uint32_t>(array[2 * i]) + array[2 * i + 1];
    }

    // Representation changes. Decompress() decodes a run container to
    // array/bitset (the mutation path); TryRunEncode() converts to run form
    // when strictly smaller (the RunOptimize path).
    void ToBitset();
    void ToArrayIfSmall();
    void Decompress();
    void TryRunEncode();
  };

  // Returns the index of the container with `key`, or containers_.size().
  size_t FindContainer(uint16_t key) const;
  Container& GetOrCreateContainer(uint16_t key);

  // Builds a container from canonical run pairs, choosing the smallest
  // representation for the result.
  static Container ContainerFromRuns(uint16_t key,
                                     std::vector<uint16_t> run_pairs,
                                     uint32_t cardinality);

  static Container AndContainers(const Container& a, const Container& b);
  static Container OrContainers(const Container& a, const Container& b);
  static Container AndNotContainers(const Container& a, const Container& b);
  static bool ContainersIntersect(const Container& a, const Container& b);
  static bool ContainerSubset(const Container& a, const Container& b);

  std::vector<Container> containers_;  // sorted by key
  uint64_t cardinality_ = 0;
};

}  // namespace rigpm

#endif  // RIGPM_BITMAP_BITMAP_H_
