#include "util/file_sync.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

namespace rigpm {

namespace {

// Opens `path` read-only with `flags` and fsyncs it; `what` names it in
// the error.
bool OpenAndSync(const std::string& path, int flags, const char* what,
                 std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | flags);
  if (fd < 0) {
    if (error != nullptr) {
      *error = std::string("cannot open ") + what + path + ": " +
               std::strerror(errno);
    }
    return false;
  }
  const bool ok = ::fsync(fd) == 0;
  if (!ok && error != nullptr) {
    *error = std::string("cannot sync ") + what + path + ": " +
             std::strerror(errno);
  }
  ::close(fd);
  return ok;
}

}  // namespace

bool SyncFile(const std::string& path, std::string* error) {
  return OpenAndSync(path, 0, "", error);
}

bool SyncParentDir(const std::string& path, std::string* error) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  return OpenAndSync(parent.empty() ? std::string(".") : parent.string(),
                     O_DIRECTORY, "directory ", error);
}

}  // namespace rigpm
