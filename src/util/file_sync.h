#ifndef RIGPM_UTIL_FILE_SYNC_H_
#define RIGPM_UTIL_FILE_SYNC_H_

#include <string>

namespace rigpm {

/// fsyncs the file at `path`. A writer that publishes a file by renaming a
/// temp file over its name calls this on the temp file first: otherwise a
/// crash can leave the name pointing at bytes that never reached the disk.
/// False with *error on failure.
bool SyncFile(const std::string& path, std::string* error);

/// fsyncs the directory containing `path`, so a file created in it or
/// renamed into it keeps its directory entry across a crash — fsync of the
/// file persists its data but not the entry. False with *error on failure.
bool SyncParentDir(const std::string& path, std::string* error);

}  // namespace rigpm

#endif  // RIGPM_UTIL_FILE_SYNC_H_
