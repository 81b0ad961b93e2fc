#include "storage/snapshot.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "reach/bfl_index.h"
#include "storage/delta_log.h"
#include "util/file_sync.h"

namespace rigpm {

namespace {

constexpr char kMagic[8] = {'R', 'I', 'G', 'P', 'M', 'S', 'N', 'P'};
constexpr size_t kHeaderBytes = sizeof(kMagic) + 2 * sizeof(uint32_t) +
                                sizeof(uint64_t);
// The zero-copy alignment contract (ByteSink::PadTo8 pads relative to the
// payload start) only holds because the header size keeps payload offsets
// congruent to file offsets mod 8.
static_assert(kHeaderBytes % 8 == 0,
              "payload must start 8-byte aligned in the file");

// Streaming fallback granularity: bounded so a corrupt payload_size from an
// unseekable source can never trigger one huge up-front allocation — the
// buffer grows chunk by chunk with the bytes that actually arrive, and a
// short source fails with `truncated` long before memory becomes a problem.
constexpr size_t kReadChunkBytes = size_t{4} << 20;

void SetError(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

struct SnapshotHeader {
  uint32_t version = 0;
  uint32_t kind_value = 0;
  uint64_t payload_size = 0;
};

// Extracts the header fields from the 24 header bytes; false (with *error)
// on bad magic. No version/kind validation — InspectSnapshot reports even
// versions this build cannot load.
bool ExtractHeader(const uint8_t* bytes, SnapshotHeader* out,
                   std::string* error) {
  if (std::memcmp(bytes, kMagic, sizeof(kMagic)) != 0) {
    *error = "bad snapshot magic (not a rigpm snapshot)";
    return false;
  }
  std::memcpy(&out->version, bytes + sizeof(kMagic), sizeof(uint32_t));
  std::memcpy(&out->kind_value, bytes + sizeof(kMagic) + sizeof(uint32_t),
              sizeof(uint32_t));
  std::memcpy(&out->payload_size, bytes + sizeof(kMagic) + 2 * sizeof(uint32_t),
              sizeof(uint64_t));
  return true;
}

// ExtractHeader plus the validation loading requires: expected kind,
// supported version. Kind first: a delta log shares this header with its
// own version number, and "wrong kind" is the useful diagnosis for it.
bool ParseHeader(const uint8_t* bytes, SnapshotKind kind,
                 SnapshotHeader* out, std::string* error) {
  if (!ExtractHeader(bytes, out, error)) return false;
  if (out->kind_value != static_cast<uint32_t>(kind)) {
    *error = "snapshot kind mismatch (file has kind " +
             std::to_string(out->kind_value) + ", expected " +
             std::to_string(static_cast<uint32_t>(kind)) + ")";
    return false;
  }
  if (out->version != kSnapshotVersion) {
    *error = "unsupported snapshot version " + std::to_string(out->version) +
             " (this build reads version " + std::to_string(kSnapshotVersion) +
             " only)";
    return false;
  }
  return true;
}

}  // namespace

SnapshotIoMode DefaultSnapshotIoMode() {
  const char* raw = std::getenv("RIGPM_SNAPSHOT_IO");
  if (raw != nullptr && std::strcmp(raw, "read") == 0) {
    return SnapshotIoMode::kRead;
  }
  return SnapshotIoMode::kMmap;
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
  const uint32_t version = kSnapshotVersion;
  uint32_t kind_value = static_cast<uint32_t>(kind);
  uint64_t payload_size = payload.size();
  uint64_t checksum = Checksum64(payload.data().data(), payload.size());
  out.write(kMagic, sizeof(kMagic));
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&kind_value), sizeof(kind_value));
  out.write(reinterpret_cast<const char*>(&payload_size),
            sizeof(payload_size));
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
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    SetError(error, "cannot open " + path);
    return std::nullopt;
  }
  uint8_t header[kHeaderBytes];
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  if (static_cast<size_t>(in.gcount()) < sizeof(header)) {
    SetError(error, "truncated snapshot (smaller than header)");
    return std::nullopt;
  }
  SnapshotHeader fields;
  std::string extract_error;
  if (!ExtractHeader(header, &fields, &extract_error)) {
    SetError(error, extract_error);
    return std::nullopt;
  }
  SnapshotInfo info;
  info.version = fields.version;
  info.kind_value = fields.kind_value;
  info.payload_size = fields.payload_size;
  if (fields.kind_value == static_cast<uint32_t>(SnapshotKind::kDelta)) {
    // Delta logs reuse the container head but not its framing: the u64 slot
    // is the base snapshot checksum, the head is followed by an 8-byte
    // delta extension (base node count + reserved, storage/delta_log.h),
    // and there is no trailing footer — the single-payload size/footer
    // cross-checks below do not apply.
    constexpr uint64_t kDeltaHeaderBytes = kHeaderBytes + 2 * sizeof(uint32_t);
    info.stored_checksum = fields.payload_size;
    info.payload_size = 0;
    in.seekg(0, std::ios::end);
    const std::streamoff delta_end = static_cast<std::streamoff>(in.tellg());
    if (in && delta_end >= static_cast<std::streamoff>(kDeltaHeaderBytes)) {
      info.file_size = static_cast<uint64_t>(delta_end);
      info.payload_size = info.file_size - kDeltaHeaderBytes;  // record area
    }
    return info;
  }
  in.seekg(0, std::ios::end);
  const std::streamoff end_pos = static_cast<std::streamoff>(in.tellg());
  if (in && end_pos >= 0) {
    info.file_size = static_cast<uint64_t>(end_pos);
    if (info.file_size < kHeaderBytes + sizeof(uint64_t) ||
        info.payload_size !=
            info.file_size - kHeaderBytes - sizeof(uint64_t)) {
      SetError(error, "snapshot payload size does not match the file size");
      return std::nullopt;
    }
    in.clear();
    in.seekg(static_cast<std::streamoff>(kHeaderBytes + info.payload_size),
             std::ios::beg);
    in.read(reinterpret_cast<char*>(&info.stored_checksum),
            sizeof(info.stored_checksum));
    if (!in) {
      SetError(error, "truncated snapshot footer");
      return std::nullopt;
    }
  }
  return info;
}

SnapshotReader::SnapshotReader(const std::string& path, SnapshotKind kind,
                               SnapshotIoMode mode) {
  if (mode == SnapshotIoMode::kMmap) {
    std::string map_error;
    mapping_ = MappedFile::Open(path, &map_error);
    if (mapping_ != nullptr) {
      InitFromMapping(kind);
      return;
    }
    // Unmappable source (FIFO, special filesystem, ...): graceful fallback
    // to the streaming read below. A missing file fails there too, with a
    // proper error.
  }
  InitFromStream(path, kind);
}

void SnapshotReader::InitFromMapping(SnapshotKind kind) {
  const uint8_t* data = mapping_->data();
  const uint64_t file_size = mapping_->size();
  if (file_size < kHeaderBytes + sizeof(uint64_t)) {
    error_ = "truncated snapshot (smaller than header)";
    return;
  }
  SnapshotHeader header;
  if (!ParseHeader(data, kind, &header, &error_)) return;
  // The declared payload must fit exactly between the header and the
  // trailing checksum; this bounds every read before any byte is decoded.
  if (header.payload_size != file_size - kHeaderBytes - sizeof(uint64_t)) {
    error_ = "snapshot payload size does not match the file size";
    return;
  }
  payload_size_ = header.payload_size;
  const uint8_t* payload = data + kHeaderBytes;
  uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, payload + payload_size_,
              sizeof(stored_checksum));
  // Checksummed in place — no private copy of the payload is ever made.
  if (stored_checksum != Checksum64(payload, payload_size_)) {
    error_ = "snapshot checksum mismatch (file is corrupt)";
    return;
  }
  stored_checksum_ = stored_checksum;
  // The sequential pass is done; what follows is decode + point queries.
  mapping_->AdviseRandom();
  source_.emplace(payload, payload_size_);
  // Deserialized objects retain the mapping via this token, so they outlive
  // the reader (and the mapping outlives them all).
  source_->EnableZeroCopy(mapping_);
}

void SnapshotReader::InitFromStream(const std::string& path,
                                    SnapshotKind kind) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error_ = "cannot open " + path;
    return;
  }
  uint8_t header_bytes[kHeaderBytes];
  in.read(reinterpret_cast<char*>(header_bytes), sizeof(header_bytes));
  if (static_cast<size_t>(in.gcount()) < sizeof(header_bytes)) {
    error_ = "truncated snapshot (smaller than header)";
    return;
  }
  SnapshotHeader header;
  if (!ParseHeader(header_bytes, kind, &header, &error_)) return;

  // Regular files know their size up front: cross-check the declared
  // payload size before reading (and reserve exactly once). Unseekable
  // sources (FIFOs) cannot be cross-checked; the bounded chunk loop below
  // keeps a lying header from allocating more than what actually arrives.
  bool seekable = false;
  {
    const std::streamoff pos = static_cast<std::streamoff>(in.tellg());
    if (in && pos >= 0) {
      in.seekg(0, std::ios::end);
      const std::streamoff end_pos = static_cast<std::streamoff>(in.tellg());
      if (in && end_pos >= 0) {
        seekable = true;
        const auto file_size = static_cast<uint64_t>(end_pos);
        // Guard the subtraction: a file of 24..31 bytes (header but no
        // checksum footer) must not wrap into a huge expected size.
        if (file_size < kHeaderBytes + sizeof(uint64_t)) {
          error_ = "truncated snapshot (smaller than header)";
          return;
        }
        if (header.payload_size !=
            file_size - kHeaderBytes - sizeof(uint64_t)) {
          error_ = "snapshot payload size does not match the file size";
          return;
        }
        in.seekg(pos, std::ios::beg);
      } else {
        in.clear();
      }
    } else {
      in.clear();
    }
  }

  payload_size_ = header.payload_size;
  // Seekable sources have a cross-checked size: allocate exactly once,
  // uninitialized (zeroing hundreds of MB just to overwrite them with the
  // read is measurable). Unseekable sources grow a vector chunk by chunk —
  // the zero-init there is the price of not trusting a lying header.
  uint8_t* dest = nullptr;
  if (seekable) {
    payload_raw_ = std::make_unique_for_overwrite<uint8_t[]>(payload_size_);
    dest = payload_raw_.get();
  }
  Checksum64Stream checksum;
  uint64_t got = 0;
  while (got < payload_size_) {
    const size_t chunk = static_cast<size_t>(
        std::min<uint64_t>(kReadChunkBytes, payload_size_ - got));
    if (!seekable) {
      payload_buf_.resize(got + chunk);
      dest = payload_buf_.data();
    }
    in.read(reinterpret_cast<char*>(dest + got),
            static_cast<std::streamsize>(chunk));
    const size_t n = static_cast<size_t>(in.gcount());
    if (n == 0) {
      error_ = "truncated snapshot payload";
      return;
    }
    checksum.Update(dest + got, n);
    got += n;
    if (n < chunk) {
      if (!seekable) payload_buf_.resize(got);
      in.clear();  // keep reading: a FIFO may deliver short counts
    }
  }
  uint64_t stored_checksum = 0;
  in.read(reinterpret_cast<char*>(&stored_checksum), sizeof(stored_checksum));
  if (static_cast<size_t>(in.gcount()) < sizeof(stored_checksum)) {
    error_ = "truncated snapshot payload";
    return;
  }
  if (stored_checksum != checksum.Finish()) {
    error_ = "snapshot checksum mismatch (file is corrupt)";
    return;
  }
  stored_checksum_ = stored_checksum;
  source_.emplace(seekable ? payload_raw_.get() : payload_buf_.data(),
                  payload_size_);
  // No zero copy: decode copies out of payload_buf_, which dies with the
  // reader.
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
