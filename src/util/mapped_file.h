#ifndef RIGPM_UTIL_MAPPED_FILE_H_
#define RIGPM_UTIL_MAPPED_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

namespace rigpm {

/// The whole of a regular file in memory: either a read-only MAP_SHARED
/// mapping or one private buffer the file was read into. MAP_SHARED matters
/// for the serving deployment: N daemon processes mapping the same snapshot
/// share one physical copy of its pages through the page cache instead of
/// holding N private heaps.
class FileBytes {
 public:
  ~FileBytes();

  FileBytes(const FileBytes&) = delete;
  FileBytes& operator=(const FileBytes&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

  /// True for a mapping, false for a read buffer.
  bool mapped() const { return buffer_ == nullptr; }

  /// Switches a mapping's read-ahead hint from sequential to random access
  /// (called once the sequential checksum pass is done); no-op on a buffer.
  void AdviseRandom() const;

 private:
  friend std::shared_ptr<const FileBytes> ReadRegularFile(
      int fd, const std::string& path, bool map, std::string* error);

  FileBytes(const uint8_t* data, size_t size,
            std::unique_ptr<uint8_t[]> buffer)
      : data_(data), size_(size), buffer_(std::move(buffer)) {}

  const uint8_t* data_;
  size_t size_;
  std::unique_ptr<uint8_t[]> buffer_;  // null for a mapping
};

/// Opens `path` read-only for every file reader here: with O_NONBLOCK, so a
/// FIFO's open never waits for a writer, then fstat, refusing anything but
/// a regular file ("PATH is not a regular file"). Returns the descriptor,
/// which the caller closes, and the file's size in *size; or -1 with *error.
int OpenRegularFile(const std::string& path, uint64_t* size,
                    std::string* error);

/// Brings the whole regular file open on `fd` into memory (`path` names it
/// in errors; FIFOs, sockets, devices and directories are refused). With
/// `map` the file is mapped, advised MADV_SEQUENTIAL|MADV_WILLNEED up front
/// (loaders checksum it in one sequential pass first); a regular file that
/// cannot be mapped, an empty one included, is read instead. Otherwise it
/// is read into one uninitialized buffer of the size fstat reports, which
/// then holds the bytes actually present: nothing is allocated beyond the
/// file's real size. Returns null with *error on failure.
std::shared_ptr<const FileBytes> ReadRegularFile(int fd,
                                                 const std::string& path,
                                                 bool map,
                                                 std::string* error);

/// OpenRegularFile, then the above.
std::shared_ptr<const FileBytes> ReadRegularFile(const std::string& path,
                                                 bool map,
                                                 std::string* error);

}  // namespace rigpm

#endif  // RIGPM_UTIL_MAPPED_FILE_H_
