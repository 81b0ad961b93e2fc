#include "util/mapped_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <new>

namespace rigpm {

namespace {

void SetError(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

// The size of the regular file open on `fd`; false with *error for any
// other kind of file.
bool StatRegular(int fd, const std::string& path, uint64_t* size,
                 std::string* error) {
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    SetError(error, "cannot stat " + path + ": " + std::strerror(errno));
    return false;
  }
  if (!S_ISREG(st.st_mode)) {
    SetError(error, path + " is not a regular file");
    return false;
  }
  *size = static_cast<uint64_t>(st.st_size);
  return true;
}

}  // namespace

FileBytes::~FileBytes() {
  if (mapped()) ::munmap(const_cast<uint8_t*>(data_), size_);
}

void FileBytes::AdviseRandom() const {
  if (mapped()) {
    (void)::madvise(const_cast<uint8_t*>(data_), size_, MADV_RANDOM);
  }
}

int OpenRegularFile(const std::string& path, uint64_t* size,
                    std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  if (fd < 0) {
    SetError(error, "cannot open " + path + ": " + std::strerror(errno));
    return -1;
  }
  if (!StatRegular(fd, path, size, error)) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::shared_ptr<const FileBytes> ReadRegularFile(int fd,
                                                 const std::string& path,
                                                 bool map,
                                                 std::string* error) {
  uint64_t size = 0;
  if (!StatRegular(fd, path, &size, error)) return nullptr;
  if (map && size > 0) {
    void* addr = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
    if (addr != MAP_FAILED) {
      // Advisory only; failure is harmless.
      (void)::madvise(addr, size, MADV_SEQUENTIAL);
      (void)::madvise(addr, size, MADV_WILLNEED);
      return std::shared_ptr<const FileBytes>(
          new FileBytes(static_cast<const uint8_t*>(addr), size, nullptr));
    }
  }
  // A regular file can be far larger than memory (a sparse one costs no
  // disk): refuse it instead of ending the process.
  std::unique_ptr<uint8_t[]> buffer;
  try {
    buffer = std::make_unique_for_overwrite<uint8_t[]>(size);
  } catch (const std::bad_alloc&) {
    SetError(error, "cannot allocate " + std::to_string(size) +
                        " bytes to read " + path);
    return nullptr;
  }
  uint64_t got = 0;
  while (got < size) {
    const ssize_t n = ::pread(fd, buffer.get() + got, size - got,
                              static_cast<off_t>(got));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      SetError(error, "cannot read " + path + ": " + std::strerror(errno));
      return nullptr;
    }
    if (n == 0) break;  // the file shrank since fstat
    got += static_cast<uint64_t>(n);
  }
  const uint8_t* data = buffer.get();
  return std::shared_ptr<const FileBytes>(
      new FileBytes(data, got, std::move(buffer)));
}

std::shared_ptr<const FileBytes> ReadRegularFile(const std::string& path,
                                                 bool map,
                                                 std::string* error) {
  uint64_t size = 0;
  const int fd = OpenRegularFile(path, &size, error);
  if (fd < 0) return nullptr;
  auto file = ReadRegularFile(fd, path, map, error);
  ::close(fd);
  return file;
}

}  // namespace rigpm
