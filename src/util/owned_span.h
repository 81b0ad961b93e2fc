#ifndef RIGPM_UTIL_OWNED_SPAN_H_
#define RIGPM_UTIL_OWNED_SPAN_H_

#include <cstddef>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace rigpm {

/// Storage for a POD array that is either *owned* (a std::vector, the build
/// path) or *borrowed* (a pointer + size into memory someone else keeps
/// alive, the zero-copy snapshot load path — see storage/snapshot.h).
///
/// Lifetime contract for borrowed spans: the borrow target must outlive the
/// span. The snapshot loader guarantees this by handing every deserialized
/// top-level object (Graph, BflIndex, ...) a shared ownership token for the
/// underlying file mapping; the spans inside those objects are plain
/// pointers with no token of their own.
///
/// Copying always materializes an owned deep copy — a copy may outlive the
/// object whose token keeps the borrow target alive, so borrowed-ness is
/// never silently propagated. Moving transfers the borrow.
template <typename T>
class OwnedOrBorrowedSpan {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  OwnedOrBorrowedSpan() = default;
  OwnedOrBorrowedSpan(std::vector<T> v) : vec_(std::move(v)) {}

  OwnedOrBorrowedSpan(const OwnedOrBorrowedSpan& other) { *this = other; }
  OwnedOrBorrowedSpan& operator=(const OwnedOrBorrowedSpan& other) {
    if (this != &other) {
      vec_.assign(other.begin(), other.end());
      data_ = nullptr;
      size_ = 0;
    }
    return *this;
  }

  OwnedOrBorrowedSpan(OwnedOrBorrowedSpan&& other) noexcept
      : data_(other.data_), size_(other.size_), vec_(std::move(other.vec_)) {
    other.data_ = nullptr;
    other.size_ = 0;
  }
  OwnedOrBorrowedSpan& operator=(OwnedOrBorrowedSpan&& other) noexcept {
    if (this != &other) {
      data_ = other.data_;
      size_ = other.size_;
      vec_ = std::move(other.vec_);
      other.data_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }

  /// Points the span at external storage the caller keeps alive. Frees any
  /// owned data.
  void Borrow(const T* data, size_t n) {
    vec_.clear();
    vec_.shrink_to_fit();
    data_ = data;
    size_ = n;
  }

  /// Copy-on-write escape hatch: returns the owned vector, first
  /// materializing a private copy if the span is currently borrowed. The
  /// reference stays valid until the next Borrow()/copy/move of this span.
  std::vector<T>& Mutable() {
    if (data_ != nullptr) {
      vec_.assign(data_, data_ + size_);
      data_ = nullptr;
      size_ = 0;
    }
    return vec_;
  }

  const T* data() const { return data_ != nullptr ? data_ : vec_.data(); }
  size_t size() const { return data_ != nullptr ? size_ : vec_.size(); }
  bool empty() const { return size() == 0; }

  const T& operator[](size_t i) const { return data()[i]; }
  const T& front() const { return data()[0]; }
  const T& back() const { return data()[size() - 1]; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size(); }

  operator std::span<const T>() const { return {data(), size()}; }

  /// Heap bytes held by the owned vector (borrowed storage is accounted to
  /// its real owner — typically a file mapping shared between processes).
  size_t OwnedHeapBytes() const { return vec_.capacity() * sizeof(T); }

 private:
  const T* data_ = nullptr;  // non-null iff borrowed
  size_t size_ = 0;          // element count when borrowed
  std::vector<T> vec_;       // storage when owned
};

}  // namespace rigpm

#endif  // RIGPM_UTIL_OWNED_SPAN_H_
