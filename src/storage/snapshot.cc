#include "storage/snapshot.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <utility>

#include "reach/bfl_index.h"
#include "storage/delta_log.h"
#include "util/file_sync.h"

namespace rigpm {

namespace {

constexpr char kMagic[8] = {'R', 'I', 'G', 'P', 'M', 'S', 'N', 'P'};
static_assert(kContainerHeadBytes ==
              sizeof(kMagic) + 2 * sizeof(uint32_t) + sizeof(uint64_t));
// The zero-copy alignment contract (ByteSink::PadTo8 pads relative to the
// payload start) only holds because the head size keeps payload offsets
// congruent to file offsets mod 8.
static_assert(kContainerHeadBytes % 8 == 0,
              "payload must start 8-byte aligned in the file");
// Head plus the trailing payload checksum: the smallest snapshot file.
constexpr uint64_t kFramingBytes = kContainerHeadBytes + sizeof(uint64_t);

void SetError(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

}  // namespace

SnapshotIoMode DefaultSnapshotIoMode() {
  const char* raw = std::getenv("RIGPM_SNAPSHOT_IO");
  if (raw != nullptr && std::strcmp(raw, "read") == 0) {
    return SnapshotIoMode::kRead;
  }
  return SnapshotIoMode::kMmap;
}

void EncodeContainerHead(ByteSink& sink, const ContainerHead& head) {
  sink.WriteRaw(kMagic, sizeof(kMagic));
  sink.WriteU32(head.version);
  sink.WriteU32(head.kind_value);
  sink.WriteU64(head.word);
}

bool DecodeContainerHead(std::span<const uint8_t> file, const char* name,
                         std::optional<SnapshotKind> kind, uint32_t version,
                         ContainerHead* out, std::string* error) {
  const std::string what = name;
  if (file.size() < kContainerHeadBytes) {
    SetError(error, "truncated " + what + " (smaller than header)");
    return false;
  }
  if (std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    SetError(error, "bad " + what + " magic (not a rigpm " + what + ")");
    return false;
  }
  ByteSource src(file.data() + sizeof(kMagic),
                 kContainerHeadBytes - sizeof(kMagic));
  out->version = src.ReadU32();
  out->kind_value = src.ReadU32();
  out->word = src.ReadU64();
  if (!kind.has_value()) return true;
  if (out->kind_value != static_cast<uint32_t>(*kind)) {
    SetError(error, "file has kind " + std::to_string(out->kind_value) +
                        ", not a " + what + " (kind " +
                        std::to_string(static_cast<uint32_t>(*kind)) + ")");
    return false;
  }
  if (out->version != version) {
    SetError(error, "unsupported " + what + " version " +
                        std::to_string(out->version) +
                        " (this build reads version " +
                        std::to_string(version) + " only)");
    return false;
  }
  return true;
}

bool WriteSnapshotFile(const std::string& path, SnapshotKind kind,
                       const ByteSink& payload, std::string* error) {
  // Write to a temp file and rename over the target: daemons may be serving
  // queries straight out of a MAP_SHARED mapping of `path`, and truncating
  // it in place would feed them half-written bytes (or SIGBUS them past a
  // shortened EOF). rename() leaves existing mappings pinned to the old
  // inode; they keep serving the old snapshot until restart.
  const std::string tmp_path =
      path + ".tmp." + std::to_string(::getpid());
  std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    SetError(error, "cannot open " + tmp_path + " for writing");
    return false;
  }
  ByteSink head;
  EncodeContainerHead(head, {.version = kSnapshotVersion,
                             .kind_value = static_cast<uint32_t>(kind),
                             .word = payload.size()});
  const uint64_t checksum = Checksum64(payload.data().data(), payload.size());
  out.write(reinterpret_cast<const char*>(head.data().data()),
            static_cast<std::streamsize>(head.size()));
  out.write(reinterpret_cast<const char*>(payload.data().data()),
            static_cast<std::streamsize>(payload.size()));
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  out.close();
  if (!out) {
    SetError(error, "short write to " + tmp_path);
    std::remove(tmp_path.c_str());
    return false;
  }
  // The bytes reach the disk before the rename makes them reachable, and
  // the rename itself before the caller acts on it: compaction publishes a
  // lineage head naming this file and unlinks the previous generation.
  if (!SyncFile(tmp_path, error)) {
    std::remove(tmp_path.c_str());
    return false;
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    SetError(error, "cannot rename " + tmp_path + " to " + path);
    std::remove(tmp_path.c_str());
    return false;
  }
  return SyncParentDir(path, error);
}

std::optional<SnapshotInfo> InspectSnapshot(const std::string& path,
                                            std::string* error) {
  SnapshotInfo info;
  const int fd = OpenRegularFile(path, &info.file_size, error);
  if (fd < 0) return std::nullopt;
  // Only the head and the footer are read.
  uint8_t head_bytes[kContainerHeadBytes];
  const ssize_t got = ::pread(fd, head_bytes, sizeof(head_bytes), 0);
  const bool footer_read =
      info.file_size >= kFramingBytes &&
      ::pread(fd, &info.stored_checksum, sizeof(info.stored_checksum),
              static_cast<off_t>(info.file_size - sizeof(uint64_t))) ==
          static_cast<ssize_t>(sizeof(info.stored_checksum));
  ::close(fd);
  ContainerHead head;
  if (!DecodeContainerHead({head_bytes, got > 0 ? static_cast<size_t>(got)
                                                : size_t{0}},
                           "snapshot", std::nullopt, 0, &head, error)) {
    return std::nullopt;
  }
  if (head.kind_value == static_cast<uint32_t>(SnapshotKind::kDelta)) {
    SetError(error, path + " is a delta log; inspect it with `rigpm_cli "
                           "delta inspect`");
    return std::nullopt;
  }
  if (info.file_size < kFramingBytes ||
      head.word != info.file_size - kFramingBytes) {
    SetError(error, "snapshot payload size does not match the file size");
    return std::nullopt;
  }
  if (!footer_read) {
    SetError(error, "truncated snapshot footer");
    return std::nullopt;
  }
  info.version = head.version;
  info.kind_value = head.kind_value;
  info.payload_size = head.word;
  return info;
}

SnapshotReader::SnapshotReader(const std::string& path, SnapshotKind kind,
                               SnapshotIoMode mode) {
  file_ = ReadRegularFile(path, mode == SnapshotIoMode::kMmap, &error_);
  if (file_ == nullptr) return;
  const std::span<const uint8_t> bytes(file_->data(), file_->size());
  ContainerHead head;
  if (!DecodeContainerHead(bytes, "snapshot", kind, kSnapshotVersion, &head,
                           &error_)) {
    return;
  }
  // The declared payload must fit exactly between the head and the
  // trailing checksum; this bounds every read before any byte is decoded.
  if (bytes.size() < kFramingBytes) {
    error_ = "truncated snapshot (smaller than header)";
    return;
  }
  if (head.word != bytes.size() - kFramingBytes) {
    error_ = "snapshot payload size does not match the file size";
    return;
  }
  const uint8_t* payload = bytes.data() + kContainerHeadBytes;
  uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, payload + head.word, sizeof(stored_checksum));
  if (stored_checksum != Checksum64(payload, head.word)) {
    error_ = "snapshot checksum mismatch (file is corrupt)";
    return;
  }
  stored_checksum_ = stored_checksum;
  source_.emplace(payload, head.word);
  if (file_->mapped()) {
    // The sequential pass is done; what follows is decode + point queries.
    file_->AdviseRandom();
    // Deserialized objects retain the mapping via this token, so they
    // outlive the reader (and the mapping outlives them all).
    source_->EnableZeroCopy(file_);
  }
}

bool SnapshotReader::Finish() {
  if (!ok()) return false;
  if (!source_->ok()) {
    error_ = source_->error();
    return false;
  }
  if (source_->remaining() != 0) {
    error_ = "snapshot payload has trailing bytes";
    return false;
  }
  return true;
}

// ----------------------------------------------------------------- engines

bool SaveEngineSnapshot(const GmEngine& engine, const std::string& path,
                        std::string* error) {
  ByteSink sink;
  engine.graph().Serialize(sink);
  engine.reach().Serialize(sink);
  return WriteSnapshotFile(path, SnapshotKind::kEngine, sink, error);
}

std::optional<WarmEngine> LoadEngineSnapshot(const std::string& path,
                                             const LoadOptions& options,
                                             std::string* error) {
  SnapshotReader reader(path, SnapshotKind::kEngine, options.io_mode);
  if (!reader.ok()) {
    SetError(error, reader.error());
    return std::nullopt;
  }
  auto graph = std::make_unique<Graph>(Graph::Deserialize(reader.source()));
  std::unique_ptr<BflIndex> bfl = BflIndex::Deserialize(reader.source());
  if (!reader.Finish() || bfl == nullptr) {
    SetError(error, reader.error());
    return std::nullopt;
  }
  if (bfl->condensation().NumNodes() != graph->NumNodes()) {
    SetError(error, "engine snapshot index does not match its graph");
    return std::nullopt;
  }
  WarmEngine warm;
  warm.graph = std::move(graph);
  warm.engine = std::make_unique<GmEngine>(*warm.graph, std::move(bfl));
  warm.stored_checksum = reader.stored_checksum();
  if (options.delta_path.empty()) return warm;
  DeltaRead read =
      ReadDeltaSince(options.delta_path, options.delta_io,
                     warm.stored_checksum, warm.graph->NumNodes());
  if (!read.ok) {
    SetError(error, read.error);
    return std::nullopt;
  }
  warm.applied_end_offset = read.stats.end_offset;
  // A caught-up log keeps the warm start warm: the snapshot's prebuilt
  // index is already exactly right.
  if (read.stats.records_applied == 0) return warm;
  auto merged = std::make_unique<Graph>(ApplyDeltaOps(*warm.graph, read.ops));
  warm.engine.reset();  // references the base graph; drop it first
  warm.graph = std::move(merged);
  warm.engine = std::make_unique<GmEngine>(*warm.graph);
  warm.applied_seqno = read.stats.last_seqno;
  warm.applied_chain = read.stats.end_chain;
  return warm;
}

}  // namespace rigpm
