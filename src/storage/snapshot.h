#ifndef RIGPM_STORAGE_SNAPSHOT_H_
#define RIGPM_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "engine/gm_engine.h"
#include "graph/graph.h"
#include "storage/snapshot_io.h"
#include "util/mapped_file.h"
#include "util/serde.h"

namespace rigpm {

/// Versioned binary snapshot files — the persistence layer that turns
/// process restarts from recompute-bound into I/O-bound (cold start parses
/// text and rebuilds the BFL index; warm start decodes pre-built structures
/// out of the file's bytes, or — the default — maps the file and serves
/// straight out of the page cache).
///
/// Container layout (all integers host-endian, see util/serde.h):
///   8 bytes  magic "RIGPMSNP"
///   u32      format version (kSnapshotVersion)
///   u32      payload kind (SnapshotKind)
///   u64      payload size in bytes
///   payload  kind-specific body written via ByteSink
///   u64      Checksum64 of the payload
/// The first 24 bytes are the container head; a delta log
/// (storage/delta_log.h) starts with the same head, and both are decoded by
/// DecodeContainerHead.
///
/// Every bulk array inside the payload is padded to an 8-byte boundary
/// (relative to the payload start; the 24-byte head keeps payload offsets
/// congruent to file offsets mod 8, and both the mapping and the read
/// buffer are at least 8-byte aligned). That is what lets the zero-copy
/// loader hand out typed pointers straight into the mapping.
///
/// A graph image (Graph::Serialize) holds the labels, both CSR directions
/// and the label-list offsets; no bitmap is stored, and a load rebuilds the
/// label bitmaps from the labels. An mmap'd load keeps the labels, the CSR
/// arrays, the label offsets and the BFL index's arrays *borrowed inside
/// the mapping*.
///
/// Snapshots are a warm-start cache written and read by the same build, so
/// the reader knows exactly one layout: kSnapshotVersion. A file of the
/// expected kind stamped with any other version is refused with
/// "unsupported snapshot version"; the kind is checked first, so a delta
/// log (which carries its own version) reads as a kind mismatch.
///
/// Readers accept regular files only, and reject bad magic, unknown
/// versions, kind mismatches, payload sizes inconsistent with the file,
/// truncation, and checksum mismatches — each with a descriptive error,
/// never by crashing or silently returning a partial structure.

/// Version 8: the graph image holds its adjacency as CSR rows only and its
/// label index as the label-list offsets only (no label lists, no
/// bitmaps); the BFL image holds the condensation (components, cyclic
/// flags, DAG rows), the interval labels per component and the two Bloom
/// label arrays, and nothing used only to build them (no component sizes,
/// topological order, hash positions or predecessor rows).
inline constexpr uint32_t kSnapshotVersion = 8;

/// Values 1 and 3 are retired and must not be reused: older builds stamped
/// them on graph-only and graph-collection payloads, and every loader
/// refuses them as a kind mismatch.
enum class SnapshotKind : uint32_t {
  kEngine = 2,  // Graph + BFL index (+ condensation/intervals)
  kDelta = 4,   // append-only edge-delta log (storage/delta_log.h);
                // NOT a single-payload snapshot: the u64 header slot holds
                // the base snapshot's checksum, and the body is a record
                // sequence with per-record checksums
};

/// The 24-byte head every container file starts with, snapshot or delta
/// log (layout above).
struct ContainerHead {
  uint32_t version = 0;
  uint32_t kind_value = 0;  // SnapshotKind, raw (may be unknown to us)
  uint64_t word = 0;  // a snapshot's payload size, a delta log's base checksum
};
inline constexpr size_t kContainerHeadBytes = 24;

/// Appends `head`, magic first, to `sink`.
void EncodeContainerHead(ByteSink& sink, const ContainerHead& head);

/// The one decoder of the container head, at the front of `file`. Refuses
/// a file shorter than the head ("truncated NAME (smaller than header)") or
/// without the magic. With `kind` set it then refuses any other kind, and
/// any version but `version`: kind first, because a snapshot and a delta
/// log share the head and "not a delta log" is the useful diagnosis for a
/// snapshot passed as one. `name` ("snapshot", "delta log") words the
/// errors.
bool DecodeContainerHead(std::span<const uint8_t> file, const char* name,
                         std::optional<SnapshotKind> kind, uint32_t version,
                         ContainerHead* out, std::string* error);

/// Frames `payload` with the header (stamped kSnapshotVersion) and
/// checksum and writes it to `path`.
bool WriteSnapshotFile(const std::string& path, SnapshotKind kind,
                       const ByteSink& payload, std::string* error = nullptr);

/// Header fields of a snapshot file, readable without touching the payload
/// (`rigpm_cli snapshot --inspect`).
struct SnapshotInfo {
  uint32_t version = 0;
  uint32_t kind_value = 0;  // SnapshotKind, raw (may be unknown to us)
  uint64_t payload_size = 0;
  uint64_t stored_checksum = 0;  // trailing footer, NOT re-verified here
  uint64_t file_size = 0;
};

/// Reads and validates only the container head and footer (magic, size
/// consistency) of the regular file at `path`. Never decodes or checksums
/// the payload, and reports the version even when this build cannot load
/// it. A delta log is refused: `rigpm_cli delta inspect` reads those.
std::optional<SnapshotInfo> InspectSnapshot(const std::string& path,
                                            std::string* error = nullptr);

/// Brings a snapshot file into memory per `mode` (ReadRegularFile,
/// util/mapped_file.h), validates the container head, and verifies the
/// payload size and checksum *before* any decoding (so deserializers never
/// see corrupt bytes). Usage:
///   SnapshotReader reader(path, SnapshotKind::kEngine);
///   if (!reader.ok()) ...;
///   Graph g = Graph::Deserialize(reader.source());
///   auto bfl = BflIndex::Deserialize(reader.source());
///   if (!reader.Finish()) ...;   // decode succeeded + payload consumed
///
/// When the file is mapped the source is zero-copy: deserialized objects
/// borrow spans from the mapping and retain a shared ownership token for
/// it, so they stay valid after the reader is destroyed; the mapping is
/// unmapped when the last such object goes away. A read buffer is decoded
/// by copying and dies with the reader.
class SnapshotReader {
 public:
  /// A file whose header names any kind but `kind` is refused.
  SnapshotReader(const std::string& path, SnapshotKind kind,
                 SnapshotIoMode mode = DefaultSnapshotIoMode());

  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  /// The file's stored payload checksum (valid once ok(); verified against
  /// the payload). This is the value delta logs bind to — callers that
  /// need it should take it from here rather than re-opening the file,
  /// which could have been rename-replaced since.
  uint64_t stored_checksum() const { return stored_checksum_; }

  /// Valid only while ok().
  ByteSource& source() { return *source_; }

  /// Checks that decoding succeeded and consumed the whole payload.
  /// Returns false (with error()) otherwise.
  bool Finish();

 private:
  std::shared_ptr<const FileBytes> file_;
  uint64_t stored_checksum_ = 0;
  std::optional<ByteSource> source_;
  std::string error_;
};

// ----------------------------------------------------------------- engines

/// A graph plus a GmEngine serving it, loaded as one unit from an engine
/// snapshot. The engine references the graph, so both live here together.
struct WarmEngine {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<GmEngine> engine;
  /// Stored payload checksum of the snapshot this engine was loaded from —
  /// the identity delta logs bind to. Taken from the bytes actually
  /// loaded, so it cannot disagree with the served graph even if the file
  /// is rename-replaced concurrently.
  uint64_t stored_checksum = 0;
  /// Delta-overlay resume point (LoadOptions::delta_path): sequence number
  /// and chain checksum of the last log record replayed into this engine,
  /// both 0 when no overlay was requested or the log held nothing. A
  /// refresher resuming this engine passes both to ReadDeltaSince, which
  /// refuses a log rewritten since (storage/delta_log.h).
  uint64_t applied_seqno = 0;
  uint64_t applied_chain = 0;
  /// Byte offset just past the last replayed record (0 when no overlay was
  /// requested or the log did not exist): a poll that finds the log this
  /// size knows it holds nothing new.
  uint64_t applied_end_offset = 0;
};

/// Persists `engine`'s graph and its pre-built BFL reachability index.
bool SaveEngineSnapshot(const GmEngine& engine, const std::string& path,
                        std::string* error = nullptr);

/// Restores a graph + engine pair without re-parsing text or rebuilding the
/// index: the whole load is deserialization (and in mmap mode, mostly just
/// establishing views into the mapping). With options.delta_path set, the
/// log is read by ReadDeltaSince, its records are applied over the base and
/// the index is rebuilt over the merged graph — the same reader and rebuild
/// step as the daemon's open and kRefresh, so the two can never diverge on
/// what "base + log" serves.
std::optional<WarmEngine> LoadEngineSnapshot(const std::string& path,
                                             const LoadOptions& options = {},
                                             std::string* error = nullptr);

}  // namespace rigpm

#endif  // RIGPM_STORAGE_SNAPSHOT_H_
