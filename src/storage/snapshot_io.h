#ifndef RIGPM_STORAGE_SNAPSHOT_IO_H_
#define RIGPM_STORAGE_SNAPSHOT_IO_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace rigpm {

/// How a snapshot or delta log gets into memory (split out of
/// storage/snapshot.h so lightweight headers can take a mode parameter
/// without pulling in the engine). Both modes go through ReadRegularFile
/// (util/mapped_file.h), take regular files only, and differ in whether
/// it maps.
enum class SnapshotIoMode : uint8_t {
  /// mmap the file read-only MAP_SHARED, checksum it in place, and decode
  /// into borrowed views — warm start is page-fault-lazy and N processes
  /// serving the same snapshot share one physical copy. A regular file
  /// that cannot be mapped is read as in kRead.
  kMmap,
  /// Read the file into one private buffer the size of the file,
  /// checksum it once, then decode by copying.
  kRead,
};

/// kMmap unless the RIGPM_SNAPSHOT_IO environment variable says "read"
/// ("mmap" selects the default explicitly; CI uses this to force one mode
/// across a whole test run).
SnapshotIoMode DefaultSnapshotIoMode();

/// Options shared by every snapshot load entry point — LoadEngineSnapshot
/// and the server's engine catalog — so the next knob lands in one struct
/// instead of fanning another positional parameter across every signature
/// (io_mode already did that once).
struct LoadOptions {
  /// How the payload gets into memory (kMmap = zero-copy default).
  SnapshotIoMode io_mode = DefaultSnapshotIoMode();

  /// When non-empty, replay this append-only delta log (storage/delta_log.h)
  /// over the loaded base and return the merged graph — the reachability
  /// index is rebuilt over it, and the result matches what a daemon serves
  /// after a kRefresh against the same log. The log is read
  /// by ReadDeltaSince: a missing or zero-length log is a caught-up no-op;
  /// a torn tail (crashed, never-acknowledged append) replays the valid
  /// prefix; a wrong base or corruption of acknowledged records fails the
  /// load.
  std::string delta_path;

  /// IO mode for reading the delta log itself. Defaults to kRead — unlike
  /// snapshots (immutable, replaced by rename), a live log can be
  /// tail-truncated in place by a recovering writer, which would SIGBUS a
  /// reader of the vanished pages (see DeltaReader).
  SnapshotIoMode delta_io = SnapshotIoMode::kRead;
};

/// Parses a --snapshot-io flag value ("mmap" or "read"). Returns false on
/// anything else, leaving *out untouched.
inline bool ParseSnapshotIoMode(const char* value, SnapshotIoMode* out) {
  if (std::strcmp(value, "mmap") == 0) {
    *out = SnapshotIoMode::kMmap;
    return true;
  }
  if (std::strcmp(value, "read") == 0) {
    *out = SnapshotIoMode::kRead;
    return true;
  }
  return false;
}

}  // namespace rigpm

#endif  // RIGPM_STORAGE_SNAPSHOT_IO_H_
