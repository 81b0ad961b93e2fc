#include "storage/delta_log.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "storage/snapshot.h"
#include "util/file_sync.h"
#include "util/serde.h"

namespace rigpm {

namespace {

// 24-byte container head + u32 base node count + u32 reserved.
constexpr uint64_t kFileHeaderBytes = kDeltaFileHeaderBytes;
static_assert(kFileHeaderBytes == kContainerHeadBytes + 2 * sizeof(uint32_t));
// base checksum + seqno + edge count + flags (the fields the header
// checksum covers).
constexpr uint64_t kRecordFieldsBytes = 2 * sizeof(uint64_t) +
                                        2 * sizeof(uint32_t);
// ... plus the header checksum itself.
constexpr uint64_t kRecordHeaderBytes = kRecordFieldsBytes + sizeof(uint64_t);
constexpr uint64_t kEdgeBytes = 2 * sizeof(NodeId);

void SetError(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

/// Serializes the delta file header into `sink`.
void WriteFileHeader(ByteSink& sink, uint64_t base_checksum,
                     uint32_t base_num_nodes) {
  EncodeContainerHead(
      sink, {.version = kDeltaFormatOps,
             .kind_value = static_cast<uint32_t>(SnapshotKind::kDelta),
             .word = base_checksum});
  sink.WriteU32(base_num_nodes);
  sink.WriteU32(0);  // reserved
}

/// Validates the delta file header at the front of `file`. Returns false
/// with *error on anything but a well-formed delta header.
bool ParseFileHeader(std::span<const uint8_t> file, uint64_t* base_checksum,
                     uint32_t* base_num_nodes, std::string* error) {
  ContainerHead head;
  if (!DecodeContainerHead(file, "delta log", SnapshotKind::kDelta,
                           kDeltaFormatOps, &head, error)) {
    return false;
  }
  if (file.size() < kFileHeaderBytes) {
    SetError(error, "truncated delta log (smaller than header)");
    return false;
  }
  *base_checksum = head.word;
  std::memcpy(base_num_nodes, file.data() + kContainerHeadBytes,
              sizeof(*base_num_nodes));
  return true;
}

/// One parsed-and-verified record starting at `offset` in data[0..size).
/// Returns the number of bytes consumed, or 0 when the bytes at `offset` do
/// not form a valid next record (*why says what failed). *torn_tail
/// distinguishes the two failure classes: true when the record simply runs
/// past end-of-file (a crashed append — Append writes each record with one
/// pwrite, so a tear always leaves a strict prefix), false when the full
/// record bytes are present but invalid (corruption of acknowledged data).
/// Pure validation — shared by writer recovery and reader iteration.
uint64_t ParseRecord(const uint8_t* data, uint64_t size, uint64_t offset,
                     uint64_t expected_base, uint64_t expected_seqno,
                     uint64_t chain_seed, DeltaRecord* out, std::string* why,
                     bool* torn_tail = nullptr) {
  if (torn_tail != nullptr) *torn_tail = false;
  if (size - offset < kRecordHeaderBytes) {
    if (torn_tail != nullptr) *torn_tail = true;
    SetError(why, "truncated record header");
    return 0;
  }
  const uint8_t* rec = data + offset;
  uint64_t base = 0;
  uint64_t seqno = 0;
  uint32_t num_edges = 0;
  uint32_t flags = 0;
  uint64_t header_checksum = 0;
  std::memcpy(&base, rec, sizeof(base));
  std::memcpy(&seqno, rec + 8, sizeof(seqno));
  std::memcpy(&num_edges, rec + 16, sizeof(num_edges));
  std::memcpy(&flags, rec + 20, sizeof(flags));
  std::memcpy(&header_checksum, rec + kRecordFieldsBytes,
              sizeof(header_checksum));
  if (base != expected_base) {
    SetError(why, "record is bound to a different base snapshot");
    return 0;
  }
  if (seqno != expected_seqno) {
    SetError(why, "record sequence number " + std::to_string(seqno) +
                      " breaks the chain (expected " +
                      std::to_string(expected_seqno) + ")");
    return 0;
  }
  if ((flags & ~kDeltaRecordHasOps) != 0) {
    SetError(why, "record has unknown flags");
    return 0;
  }
  const bool has_ops = (flags & kDeltaRecordHasOps) != 0;
  // The header carries its own checksum so the edge count is trustworthy
  // BEFORE the truncated-body test below: without it, a bit flip in
  // num_edges would inflate the declared size past EOF and a corrupt
  // record mid-log would be indistinguishable from a torn append — and
  // writer recovery would truncate acknowledged records behind it.
  if (header_checksum != Checksum64(rec, kRecordFieldsBytes, chain_seed)) {
    SetError(why, "record header checksum mismatch");
    return 0;
  }
  const uint64_t body = kRecordHeaderBytes + uint64_t{num_edges} * kEdgeBytes +
                        (has_ops ? uint64_t{num_edges} : 0);
  if (size - offset < body + sizeof(uint64_t)) {
    if (torn_tail != nullptr) *torn_tail = true;
    SetError(why, "truncated record body");
    return 0;
  }
  uint64_t stored = 0;
  std::memcpy(&stored, rec + body, sizeof(stored));
  if (stored != Checksum64(rec, body, chain_seed)) {
    SetError(why, "record checksum mismatch");
    return 0;
  }
  const uint8_t* op_kinds =
      rec + kRecordHeaderBytes + uint64_t{num_edges} * kEdgeBytes;
  if (has_ops) {
    for (uint32_t i = 0; i < num_edges; ++i) {
      if (op_kinds[i] > static_cast<uint8_t>(DeltaOpKind::kDelete)) {
        // Checksum passed, so these bytes are what the writer wrote — an
        // op kind we do not know is a format from the future, not a tear.
        SetError(why, "record op kind " + std::to_string(op_kinds[i]) +
                          " is unknown");
        return 0;
      }
    }
  }
  if (out != nullptr) {
    out->seqno = seqno;
    out->ops.resize(num_edges);
    for (uint32_t i = 0; i < num_edges; ++i) {
      NodeId src = 0;
      NodeId dst = 0;
      std::memcpy(&src, rec + kRecordHeaderBytes + uint64_t{i} * kEdgeBytes,
                  sizeof(src));
      std::memcpy(&dst,
                  rec + kRecordHeaderBytes + uint64_t{i} * kEdgeBytes +
                      sizeof(NodeId),
                  sizeof(dst));
      out->ops[i] = {src, dst,
                     has_ops ? static_cast<DeltaOpKind>(op_kinds[i])
                             : DeltaOpKind::kAdd};
    }
  }
  return body + sizeof(uint64_t);
}

/// Updates *chain to the checksum of the record at `offset` (caller has
/// already validated it via ParseRecord).
void AdvanceChain(const uint8_t* data, uint64_t offset, uint64_t consumed,
                  uint64_t* chain) {
  std::memcpy(chain, data + offset + consumed - sizeof(uint64_t),
              sizeof(*chain));
}

}  // namespace

std::vector<DeltaOp> EdgesToOps(
    std::span<const std::pair<NodeId, NodeId>> edges) {
  std::vector<DeltaOp> ops;
  ops.reserve(edges.size());
  for (const auto& [src, dst] : edges) {
    ops.push_back({src, dst, DeltaOpKind::kAdd});
  }
  return ops;
}

uint64_t DeltaRecord::delete_count() const {
  uint64_t n = 0;
  for (const DeltaOp& op : ops) n += op.kind == DeltaOpKind::kDelete;
  return n;
}

// ----------------------------------------------------------- DeltaWriter

DeltaWriter::~DeltaWriter() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<DeltaWriter> DeltaWriter::Open(const std::string& path,
                                               uint64_t base_checksum,
                                               uint32_t base_num_nodes,
                                               std::string* error,
                                               DeltaWriterOptions options) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    SetError(error, "cannot open " + path + ": " + std::strerror(errno));
    return nullptr;
  }
  auto writer = std::unique_ptr<DeltaWriter>(new DeltaWriter());
  writer->fd_ = fd;  // the writer owns fd (and its lock) from here on
  writer->base_num_nodes_ = base_num_nodes;
  // One writer at a time: two concurrent appenders would both scan to the
  // same chain position and interleave same-seqno records — the second
  // writer's acknowledged record would read as a torn tail and be
  // truncated away by the next recovery scan. The lock lives as long as
  // the fd, i.e. the writer.
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    SetError(error, path + (errno == EWOULDBLOCK
                                ? " is locked by another delta writer"
                                : std::string(" lock failed: ") +
                                      std::strerror(errno)));
    return nullptr;
  }
  writer->base_checksum_ = base_checksum;
  writer->chain_checksum_ = base_checksum;
  writer->options_ = options;

  // Read whatever is there: a fresh file gets a header; an existing log is
  // validated and scanned so appends continue the chain. The scan doubles
  // as crash recovery — an invalid tail (a torn append) is truncated away.
  auto file = ReadRegularFile(fd, path, /*map=*/false, error);
  if (file == nullptr) return nullptr;
  if (file->size() == 0) {
    // Truly empty (just created, or a zero-length leftover): initialize.
    // The directory fsync makes the new entry itself durable — without it
    // a crash after an "acknowledged" first append could lose the whole
    // file, violating the write-ahead guarantee the journal exists for.
    if (base_num_nodes == 0) {
      SetError(error, "creating " + path + " requires the base graph's "
                          "node count (the permanent endpoint bound)");
      return nullptr;
    }
    ByteSink header;
    WriteFileHeader(header, base_checksum, base_num_nodes);
    if (::pwrite(fd, header.data().data(), header.size(), 0) !=
        static_cast<ssize_t>(header.size())) {
      SetError(error, "cannot initialize " + path + ": " +
                          std::strerror(errno));
      return nullptr;
    }
    if (options.fsync_each_append &&
        (::fdatasync(fd) != 0 || !SyncParentDir(path, error))) {
      if (error != nullptr && error->empty()) {
        SetError(error, "cannot sync " + path + ": " + std::strerror(errno));
      }
      return nullptr;
    }
    return writer;
  }
  if (file->size() < kFileHeaderBytes) {
    // Nonempty but too short to be a delta log. This is NOT ours to
    // repair: a torn header write can only exist for a log that never
    // acknowledged an append, and the far likelier cause is a mistyped
    // path pointing at some other small file — refuse instead of
    // truncating someone's data away.
    SetError(error, path + " exists but is not a delta log (" +
                        std::to_string(file->size()) + " bytes); refusing "
                        "to overwrite it");
    return nullptr;
  }

  const std::span<const uint8_t> bytes(file->data(), file->size());
  uint64_t file_base = 0;
  uint32_t file_num_nodes = 0;
  // The header (version included) is decided before any chain validation,
  // so a foreign version reads as a version error, not a checksum failure.
  if (!ParseFileHeader(bytes, &file_base, &file_num_nodes, error)) {
    return nullptr;
  }
  if (file_base != base_checksum) {
    SetError(error, path + " is bound to a different base snapshot "
                        "(refusing to mix bases in one log)");
    return nullptr;
  }
  if (base_num_nodes != 0 && base_num_nodes != file_num_nodes) {
    SetError(error, path + " records a base of " +
                        std::to_string(file_num_nodes) +
                        " nodes, but the caller expects " +
                        std::to_string(base_num_nodes));
    return nullptr;
  }
  writer->base_num_nodes_ = file_num_nodes;
  uint64_t offset = kFileHeaderBytes;
  while (offset < bytes.size()) {
    std::string why;
    bool torn_tail = false;
    uint64_t consumed =
        ParseRecord(bytes.data(), bytes.size(), offset, base_checksum,
                    writer->last_seqno_ + 1, writer->chain_checksum_, nullptr,
                    &why, &torn_tail);
    if (consumed == 0) {
      if (!torn_tail) {
        // Full record bytes are present but invalid: that is corruption of
        // acknowledged (fsynced) data, not a crashed append — truncating
        // here would silently destroy every durable record after it.
        // Refuse; the operator can inspect/replay the valid prefix and
        // re-snapshot.
        SetError(error, path + " is corrupt after record " +
                            std::to_string(writer->last_seqno_) + " (" +
                            why + "); refusing to truncate acknowledged "
                            "records — recover via `delta replay` + a new "
                            "log");
        return nullptr;
      }
      // Torn tail from a crashed append: drop it so the next record chains
      // cleanly off the last durable one.
      if (::ftruncate(fd, static_cast<off_t>(offset)) != 0) {
        SetError(error, "cannot truncate torn tail of " + path + ": " +
                            std::strerror(errno));
        return nullptr;
      }
      break;
    }
    AdvanceChain(bytes.data(), offset, consumed, &writer->chain_checksum_);
    ++writer->last_seqno_;
    offset += consumed;
  }
  return writer;
}

bool DeltaWriter::AppendOps(std::span<const DeltaOp> ops,
                            std::string* error) {
  if (fd_ < 0) {
    SetError(error, "delta writer is not open");
    return false;
  }
  if (poisoned_) {
    SetError(error, "delta writer is poisoned (a failed append could not "
                    "be rolled back; reopen the log to recover)");
    return false;
  }
  if (ops.size() > std::numeric_limits<uint32_t>::max()) {
    SetError(error, "op batch too large for one delta record");
    return false;
  }
  // The format layer's own line of defense: no record may ever reference a
  // node the base does not have, whatever the caller checked.
  if (!ValidateOpEndpoints(ops, base_num_nodes_, error)) return false;
  bool has_delete = false;
  for (const DeltaOp& op : ops) has_delete |= op.kind == DeltaOpKind::kDelete;
  // Add-only batches use the flags == 0 encoding: an op-kind byte per edge
  // saved.
  const uint32_t flags = has_delete ? kDeltaRecordHasOps : 0u;
  ByteSink record;
  record.WriteU64(base_checksum_);
  record.WriteU64(last_seqno_ + 1);
  record.WriteU32(static_cast<uint32_t>(ops.size()));
  record.WriteU32(flags);
  // Header checksum over the fields above: keeps the edge count
  // trustworthy for readers even when the body is torn (ParseRecord).
  record.WriteU64(
      Checksum64(record.data().data(), record.size(), chain_checksum_));
  for (const DeltaOp& op : ops) {
    record.WriteU32(op.src);
    record.WriteU32(op.dst);
  }
  if (flags & kDeltaRecordHasOps) {
    for (const DeltaOp& op : ops) {
      const uint8_t kind = static_cast<uint8_t>(op.kind);
      record.WriteRaw(&kind, 1);
    }
  }
  const uint64_t checksum =
      Checksum64(record.data().data(), record.size(), chain_checksum_);
  record.WriteU64(checksum);

  // One positional write at the end: no seek state to race, and a torn
  // write is recovered by the next Open()'s tail truncation.
  off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end < 0) {
    SetError(error, std::string("delta append failed: ") +
                        std::strerror(errno));
    return false;
  }
  // On ANY failure, roll the file back to where this append started: a
  // partial record left in place would sit in front of the next
  // successful append, turning an acknowledged record into an unreadable
  // tail that recovery would then truncate away. If even the rollback
  // fails, the writer poisons itself — a blind retry would land after the
  // junk and be unrecoverable; reopening the log re-runs torn-tail
  // recovery on the real file state.
  auto fail_and_rollback = [&](const char* what) {
    SetError(error, std::string(what) + ": " + std::strerror(errno));
    if (::ftruncate(fd_, end) != 0) poisoned_ = true;
    return false;
  };
  if (::pwrite(fd_, record.data().data(), record.size(), end) !=
      static_cast<ssize_t>(record.size())) {
    return fail_and_rollback("delta append failed");
  }
  if (options_.fsync_each_append && ::fdatasync(fd_) != 0) {
    return fail_and_rollback("delta fsync failed");
  }
  chain_checksum_ = checksum;
  ++last_seqno_;
  return true;
}

bool DeltaWriter::Append(std::span<const std::pair<NodeId, NodeId>> edges,
                         std::string* error) {
  return AppendOps(EdgesToOps(edges), error);
}

// ----------------------------------------------------------- DeltaReader

DeltaReader::DeltaReader(const std::string& path, SnapshotIoMode mode) {
  file_ = ReadRegularFile(path, mode == SnapshotIoMode::kMmap, &error_);
  if (file_ == nullptr) return;
  if (!ParseFileHeader({file_->data(), file_->size()}, &base_checksum_,
                       &base_num_nodes_, &error_)) {
    return;
  }
  chain_checksum_ = base_checksum_;
  offset_ = kFileHeaderBytes;
}

bool DeltaReader::Next(DeltaRecord* out) {
  if (!ok() || truncated_) return false;
  const uint8_t* data = file_->data();
  const uint64_t size = file_->size();
  if (offset_ >= size) return false;  // clean end of log
  std::string why;
  uint64_t consumed =
      ParseRecord(data, size, offset_, base_checksum_, last_seqno_ + 1,
                  chain_checksum_, out, &why, &tail_torn_);
  if (consumed == 0) {
    truncated_ = true;
    tail_error_ = why;
    return false;
  }
  AdvanceChain(data, offset_, consumed, &chain_checksum_);
  offset_ += consumed;
  ++last_seqno_;
  ++records_read_;
  return true;
}

// ------------------------------------------------------------- replaying

namespace {

// Reduces *ops to exactly the mutations that change `g`, sorted by
// (src, dst): the last op per (src, dst) wins, then adds of edges `g`
// already has and deletes of edges it lacks are dropped.
void NormalizeDeltaOps(const Graph& g, std::vector<DeltaOp>* ops) {
  // Last op per (src, dst) wins: an add-then-delete in one batch nets to a
  // delete, and vice versa. Insertion order decides, so walk forward and
  // overwrite.
  std::unordered_map<uint64_t, DeltaOpKind> last;
  last.reserve(ops->size());
  for (const DeltaOp& op : *ops) {
    last[(uint64_t{op.src} << 32) | op.dst] = op.kind;
  }
  std::vector<DeltaOp> out;
  out.reserve(last.size());
  for (const auto& [key, kind] : last) {
    const NodeId src = static_cast<NodeId>(key >> 32);
    const NodeId dst = static_cast<NodeId>(key & 0xffffffffu);
    // Drop no-ops against the graph: adding a present edge or deleting an
    // absent one changes nothing.
    const bool present = g.HasEdge(src, dst);
    if (kind == DeltaOpKind::kAdd ? present : !present) continue;
    out.push_back({src, dst, kind});
  }
  std::sort(out.begin(), out.end());
  *ops = std::move(out);
}

}  // namespace

Graph ApplyDeltaOps(const Graph& g, std::span<const DeltaOp> ops) {
  std::vector<DeltaOp> fresh(ops.begin(), ops.end());
  NormalizeDeltaOps(g, &fresh);
  std::vector<LabelId> labels(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); ++v) labels[v] = g.Label(v);
  std::vector<std::pair<NodeId, NodeId>> adds;
  std::vector<std::pair<NodeId, NodeId>> deletes;
  for (const DeltaOp& op : fresh) {
    (op.kind == DeltaOpKind::kAdd ? adds : deletes)
        .emplace_back(op.src, op.dst);
  }
  std::sort(deletes.begin(), deletes.end());
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(g.NumEdges() + adds.size());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (NodeId w : g.OutNeighbors(v)) {
      if (!deletes.empty() &&
          std::binary_search(deletes.begin(), deletes.end(),
                             std::pair<NodeId, NodeId>{v, w})) {
        continue;
      }
      edges.emplace_back(v, w);
    }
  }
  edges.insert(edges.end(), adds.begin(), adds.end());
  return Graph::FromEdges(std::move(labels), std::move(edges));
}

Graph ApplyEdgesToGraph(const Graph& g,
                        std::span<const std::pair<NodeId, NodeId>> new_edges) {
  return ApplyDeltaOps(g, EdgesToOps(new_edges));
}

bool ValidateOpEndpoints(std::span<const DeltaOp> ops, uint32_t num_nodes,
                         std::string* error) {
  for (const DeltaOp& op : ops) {
    if (op.src >= num_nodes || op.dst >= num_nodes) {
      SetError(error, "edge (" + std::to_string(op.src) + ", " +
                          std::to_string(op.dst) + ") references node " +
                          std::to_string(std::max(op.src, op.dst)) +
                          ", but the graph has only " +
                          std::to_string(num_nodes) + " nodes");
      return false;
    }
  }
  return true;
}

bool CollectDeltaOps(DeltaReader& reader, uint32_t num_nodes,
                     uint64_t after_seqno, std::vector<DeltaOp>* ops,
                     ReplayStats* stats, std::string* error) {
  if (!reader.ok()) {
    SetError(error, reader.error());
    return false;
  }
  ReplayStats local;
  // The resume chain is the base checksum, or found when the scan passes
  // record after_seqno.
  if (after_seqno == 0) local.resume_chain = reader.base_checksum();
  local.end_chain = local.resume_chain;
  local.end_offset = reader.offset();
  DeltaRecord rec;
  while (reader.Next(&rec)) {
    if (rec.seqno <= after_seqno) {
      if (rec.seqno == after_seqno) {
        local.resume_chain = reader.chain_checksum();
        local.end_chain = local.resume_chain;
        local.end_offset = reader.offset();
      }
      continue;
    }
    std::string endpoint_error;
    if (!ValidateOpEndpoints(rec.ops, num_nodes, &endpoint_error)) {
      SetError(error, "delta record " + std::to_string(rec.seqno) + ": " +
                          endpoint_error + " — log does not match this base");
      return false;
    }
    ops->insert(ops->end(), rec.ops.begin(), rec.ops.end());
    ++local.records_applied;
    local.edges_in_records += rec.ops.size();
    local.delete_ops += rec.delete_count();
    local.last_seqno = rec.seqno;
    local.end_chain = reader.chain_checksum();
    local.end_offset = reader.offset();
  }
  if (stats != nullptr) *stats = local;
  return true;
}

DeltaRead ReadDeltaSince(const std::string& path, SnapshotIoMode io,
                         uint64_t base_checksum, uint32_t num_nodes,
                         uint64_t since_seqno, uint64_t since_chain) {
  DeltaRead read;
  // The log is created lazily by the first append; reading before that (or
  // after a crash between open(O_CREAT) and the header write) is a healthy
  // caught-up state. Any other path that is not a regular file is refused
  // by the reader.
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0
          ? errno == ENOENT
          : S_ISREG(st.st_mode) && st.st_size == 0) {
    read.ok = true;
    return read;
  }
  DeltaReader reader(path, io);
  if (!reader.ok()) {
    read.error = "cannot read delta log: " + reader.error();
    return read;
  }
  if (reader.base_checksum() != base_checksum) {
    read.mismatch = true;
    read.error = "delta log is bound to a different base snapshot";
    return read;
  }
  if (!CollectDeltaOps(reader, num_nodes, since_seqno, &read.ops, &read.stats,
                       &read.error)) {
    return read;
  }
  // Corruption before the prefix check: a corrupt record inside the
  // applied prefix also stops the scan short of the resume point, and
  // calling that a rewritten log would send the operator after the wrong
  // fix.
  if (reader.truncated() && !reader.tail_torn()) {
    read.error = "delta log is corrupt after record " +
                 std::to_string(reader.records_read()) + " (" +
                 reader.tail_error() +
                 ") — refusing to serve a silently partial graph";
    return read;
  }
  if (since_seqno > 0 && read.stats.resume_chain != since_chain) {
    read.mismatch = true;
    read.error =
        "delta log no longer contains the applied prefix (rewritten or "
        "replaced since it was applied) — reload from the base snapshot";
    return read;
  }
  read.torn_tail = reader.truncated();
  read.ok = true;
  return read;
}

}  // namespace rigpm
