#ifndef RIGPM_UTIL_SERDE_H_
#define RIGPM_UTIL_SERDE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/owned_span.h"

namespace rigpm {

// Binary serialization primitives shared by the snapshot subsystem
// (storage/snapshot.h). All multi-byte values are stored in the host's
// native byte order; snapshots are a warm-start cache for the machine that
// wrote them, not an interchange format, and the build targets little-endian
// hosts only (asserted below so a port fails loudly, not silently).
static_assert(std::endian::native == std::endian::little,
              "snapshot format assumes a little-endian host");

/// 64-bit integrity checksum over `n` bytes: four independent
/// multiply-rotate lanes folded with the length at the end. Chosen over
/// table-based CRC-32 because snapshot loading checksums hundreds of MB and
/// this runs at memory speed (CRC-32 slicing topped out ~1.3 GB/s on the
/// dev box and dominated warm-start latency).
uint64_t Checksum64(const void* data, size_t n, uint64_t seed = 0);

/// Growable in-memory byte buffer that the Serialize() methods append to.
/// The snapshot writer frames the finished buffer with a header and CRC.
/// There is one layout (storage/snapshot.h): bulk arrays are 8-byte padded
/// and each bitmap container is written as one raw block.
class ByteSink {
 public:
  void WriteRaw(const void* data, size_t n) {
    if (n == 0) return;
    size_t old_size = buffer_.size();
    buffer_.resize(old_size + n);
    std::memcpy(buffer_.data() + old_size, data, n);
  }

  void WriteU8(uint8_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU16(uint16_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }

  /// u64 byte length followed by the raw characters.
  void WriteString(const std::string& s) {
    WriteU64(s.size());
    WriteRaw(s.data(), s.size());
  }

  /// u64 element count followed by the elements as one raw block. This is
  /// the container-at-a-time fast path: a vector of POD round-trips as a
  /// single memcpy-sized write instead of one call per element.
  template <typename T>
  void WriteVec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteU64(v.size());
    WriteRaw(v.data(), v.size() * sizeof(T));
  }

  /// Zero-pads the buffer to the next 8-byte boundary. Offsets are
  /// relative to the buffer start, which the snapshot container guarantees
  /// lands 8-byte aligned in both the file mapping and the read buffer, so
  /// "aligned in the buffer" means "aligned in memory" on the load side.
  void PadTo8() {
    static constexpr uint8_t kZeros[8] = {0};
    size_t pad = (8 - (buffer_.size() & 7)) & 7;
    WriteRaw(kZeros, pad);
  }

  /// u64 element count, alignment padding, then the elements as one raw
  /// block. The padding is what lets the zero-copy loader hand out typed
  /// pointers straight into the snapshot mapping; mirror of
  /// ByteSource::ReadSpan.
  template <typename T>
  void WriteSpan(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteU64(v.size());
    PadTo8();
    WriteRaw(v.data(), v.size() * sizeof(T));
  }

  const std::vector<uint8_t>& data() const { return buffer_; }
  size_t size() const { return buffer_.size(); }

 private:
  std::vector<uint8_t> buffer_;
};

/// Bounded reader over an in-memory payload — the bytes of a snapshot file,
/// mapped or read into one buffer (util/mapped_file.h) and checksummed in
/// one pass before any decoding, so decode itself is pure memcpy. Every
/// accessor fails softly: after the first error (truncation, overrun,
/// caller-reported corruption) `ok()` turns false, subsequent reads return
/// zero values, and `error()` describes the first failure. Deserializers
/// can therefore run a straight-line decode and check `ok()` once at the
/// end.
///
/// Zero-copy mode (EnableZeroCopy): ReadSpan hands out borrowed pointers
/// into the payload instead of copying, and the source exposes the storage
/// ownership token deserialized objects must retain so the payload outlives
/// every borrowed view. Without it (the default) ReadSpan always copies, so
/// the payload may be discarded after decoding.
class ByteSource {
 public:
  /// The caller keeps `data` alive and unchanged while reading.
  ByteSource(const void* data, size_t n)
      : base_(static_cast<const uint8_t*>(data)),
        cursor_(base_),
        remaining_(n) {}

  ByteSource(const ByteSource&) = delete;
  ByteSource& operator=(const ByteSource&) = delete;

  /// Allows ReadSpan to borrow instead of copy. `storage` is the
  /// ownership token (the snapshot file's mapping, a FileBytes) that keeps
  /// the payload alive; deserialized objects copy it via storage().
  void EnableZeroCopy(std::shared_ptr<const void> storage) {
    zero_copy_ = true;
    storage_ = std::move(storage);
  }

  /// Null unless zero-copy mode is on.
  const std::shared_ptr<const void>& storage() const { return storage_; }

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  uint64_t remaining() const { return remaining_; }

  /// Records the first failure; reads after this are no-ops.
  void Fail(const std::string& msg) {
    if (ok_) {
      ok_ = false;
      error_ = msg;
    }
  }

  bool ReadRaw(void* data, size_t n) {
    if (!ok_) return false;
    if (n == 0) return true;  // empty vector: data() may be null
    if (n > remaining_) {
      Fail("truncated snapshot payload");
      return false;
    }
    std::memcpy(data, cursor_, n);
    cursor_ += n;
    remaining_ -= n;
    return true;
  }

  uint8_t ReadU8() { return ReadPod<uint8_t>(); }
  uint16_t ReadU16() { return ReadPod<uint16_t>(); }
  uint32_t ReadU32() { return ReadPod<uint32_t>(); }
  uint64_t ReadU64() { return ReadPod<uint64_t>(); }

  std::string ReadString();

  /// Mirror of ByteSink::WriteVec. The element count is validated against
  /// the bytes remaining in the payload before anything is allocated, so a
  /// corrupt length cannot trigger a huge allocation. (The payload carries
  /// no alignment guarantees, so the copy goes through memcpy, never a
  /// typed pointer into the buffer.)
  template <typename T>
  bool ReadVec(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t count = ReadU64();
    if (!ok_) return false;
    if (count > remaining_ / sizeof(T)) {
      Fail("vector length exceeds snapshot payload");
      return false;
    }
    out->resize(count);
    return ReadRaw(out->data(), count * sizeof(T));
  }

  /// Consumes the alignment padding WriteSpan/PadTo8 emitted.
  bool SkipPad8() {
    if (!ok_) return false;
    size_t pad = (8 - (static_cast<size_t>(cursor_ - base_) & 7)) & 7;
    if (pad > remaining_) {
      Fail("truncated snapshot payload");
      return false;
    }
    cursor_ += pad;
    remaining_ -= pad;
    return true;
  }

  /// Mirror of ByteSink::WriteSpan: u64 count, alignment padding, then the
  /// elements, which it either borrows as a typed pointer into the payload
  /// (zero-copy mode, pointer suitably aligned — guaranteed by the padding,
  /// checked at runtime regardless) or copies into owned storage.
  template <typename T>
  bool ReadSpan(OwnedOrBorrowedSpan<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    const uint64_t count = ReadU64();
    if (!SkipPad8()) return false;
    if (count > remaining_ / sizeof(T)) {
      Fail("array length exceeds snapshot payload");
      return false;
    }
    const size_t bytes = static_cast<size_t>(count) * sizeof(T);
    if (zero_copy_ &&
        reinterpret_cast<uintptr_t>(cursor_) % alignof(T) == 0) {
      out->Borrow(reinterpret_cast<const T*>(cursor_), count);
      cursor_ += bytes;
      remaining_ -= bytes;
      return true;
    }
    std::vector<T>& vec = out->Mutable();
    vec.resize(count);
    return ReadRaw(vec.data(), bytes);
  }

 private:
  template <typename T>
  T ReadPod() {
    T v{};
    ReadRaw(&v, sizeof(v));
    return v;
  }

  const uint8_t* base_;
  const uint8_t* cursor_;
  uint64_t remaining_;
  bool ok_ = true;
  bool zero_copy_ = false;
  std::shared_ptr<const void> storage_;
  std::string error_;
};

}  // namespace rigpm

#endif  // RIGPM_UTIL_SERDE_H_
