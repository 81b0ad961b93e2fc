#ifndef RIGPM_STORAGE_DELTA_LOG_H_
#define RIGPM_STORAGE_DELTA_LOG_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "storage/snapshot_io.h"
#include "util/mapped_file.h"

namespace rigpm {

/// Append-only edge-delta log over a base snapshot — the persistence layer
/// for a changing graph. A served graph is refreshed by shipping
/// `base.snap + graph.delta` instead of re-dumping and reloading the whole
/// snapshot: updates land in the log as small checksummed records
/// (DeltaWriter::AppendOps), and every reader (snapshot loads, the daemon's
/// opens, refreshes and maintenance polls, `rigpm_cli delta replay`)
/// rebuilds the current graph the same way: ReadDeltaSince, then
/// ApplyDeltaOps over the base.
///
/// File layout (the 24-byte container head of storage/snapshot.h, read by
/// its one decoder, plus an 8-byte delta extension; the body is an
/// unbounded record sequence rather than one checksummed payload — an
/// append must not have to rewrite a trailing footer):
///   8 bytes  magic "RIGPMSNP"
///   u32      format version (kDeltaFormatOps)
///   u32      kind (SnapshotKind::kDelta)
///   u64      base checksum — the stored payload checksum of the base
///            snapshot file (SnapshotInfo::stored_checksum); binds the log
///            to exactly one base
///   u32      base node count — recorded at creation so later appends can
///            validate edge endpoints without decoding the base snapshot
///            at all (delta ops never add nodes, so the bound is permanent)
///   u32      reserved (0)
/// followed by zero or more records, each:
///   u64      base checksum (repeated, so every record self-identifies)
///   u64      sequence number (1-based, consecutive)
///   u32      edge count
///   u32      flags — 0 (every op is an add: the common case, a byte per
///            edge smaller), or kDeltaRecordHasOps (bit 0): the record
///            carries a per-edge op-kind byte array
///   u64      header checksum — Checksum64 over the four fields above,
///            seeded like the record checksum. It makes the edge count
///            trustworthy on its own, so a bit-flipped length that claims
///            to run past end-of-file is detected as corruption instead of
///            masquerading as a torn append.
///   pairs    edge list: (u32 src, u32 dst) per edge
///   bytes    (kDeltaRecordHasOps only) one op kind per edge, in edge
///            order: 0 = add, 1 = delete
///   u64      record checksum — Checksum64 over the record bytes above,
///            SEEDED with the previous record's checksum (the base checksum
///            for record 1). The seed chaining makes each checksum depend
///            on the whole prefix, so reordered, spliced, or cross-wired
///            records fail validation, not just bit-flipped ones.
///
/// Versions: a log is written and read by the same build, so there is one
/// format, kDeltaFormatOps. A header stamped with any other version is
/// refused up front by both DeltaWriter::Open and DeltaReader ("unsupported
/// delta log version N"), never reported as a misleading chain-checksum
/// error.
///
/// Durability: DeltaWriter::Append writes the record and fdatasync()s by
/// default, so an acknowledged append survives a crash. A crash mid-append
/// leaves a truncated tail; DeltaWriter::Open truncates it away (standard
/// WAL recovery) and DeltaReader replays the valid prefix.
///
/// All integers are host-endian, like every other rigpm persistence format.

/// The delta log format version this build reads and writes.
inline constexpr uint32_t kDeltaFormatOps = 4;
/// Record flag: the record body carries an op-kind byte per edge.
inline constexpr uint32_t kDeltaRecordHasOps = 1u << 0;
/// Size of the fixed file header preceding record 1 — the end offset of an
/// empty (freshly created) log.
inline constexpr uint64_t kDeltaFileHeaderBytes = 32;

enum class DeltaOpKind : uint8_t { kAdd = 0, kDelete = 1 };

/// One edge mutation. Ordered by (src, dst, kind) so normalized batches
/// are deterministic.
struct DeltaOp {
  NodeId src = 0;
  NodeId dst = 0;
  DeltaOpKind kind = DeltaOpKind::kAdd;

  friend bool operator==(const DeltaOp&, const DeltaOp&) = default;
  friend bool operator<(const DeltaOp& a, const DeltaOp& b) {
    if (a.src != b.src) return a.src < b.src;
    if (a.dst != b.dst) return a.dst < b.dst;
    return static_cast<uint8_t>(a.kind) < static_cast<uint8_t>(b.kind);
  }
};

/// Converts an add-only edge batch to ops (every op kAdd).
std::vector<DeltaOp> EdgesToOps(
    std::span<const std::pair<NodeId, NodeId>> edges);

/// One replayable op batch. Records with flags == 0 come back with every op
/// kAdd.
struct DeltaRecord {
  uint64_t seqno = 0;
  std::vector<DeltaOp> ops;

  uint64_t delete_count() const;
};

struct DeltaWriterOptions {
  /// fdatasync() after every record. Turn off only where losing the tail on
  /// a crash is acceptable (benchmarks).
  bool fsync_each_append = true;
};

/// Appends op-batch records to a delta log, creating the file (and its
/// header) on first use. Open() recovers from a crashed append by
/// truncating the invalid tail, then positions at the end of the valid
/// prefix; Append() frames, checksums, and (by default) syncs one record.
class DeltaWriter {
 public:
  ~DeltaWriter();

  DeltaWriter(const DeltaWriter&) = delete;
  DeltaWriter& operator=(const DeltaWriter&) = delete;

  /// Opens `path` for appending and takes an exclusive flock (held for
  /// the writer's lifetime; a second concurrent writer is refused). A
  /// missing or empty file is initialized with a header binding it to
  /// `base_checksum` and `base_num_nodes` (and the directory entry
  /// fsynced); an existing log must carry the same base checksum
  /// (appending records for a different base would make the whole log
  /// unreplayable) and `base_num_nodes` is then read from it, so callers
  /// may pass 0 to mean "whatever the log says" — decoding the base graph
  /// is only needed to CREATE a log. A TORN tail — a record whose bytes
  /// end at EOF, i.e. a crashed append — is truncated to the last valid
  /// record; full-size records that fail validation are treated as
  /// corruption of acknowledged data and make Open refuse rather than
  /// destroy them. (Deliberate tradeoff: on filesystems whose crash
  /// behavior can extend the file size before all data blocks land, an
  /// UNACKNOWLEDGED torn append may leave a full-size-but-invalid tail
  /// indistinguishable from corruption of an acknowledged record — Open
  /// refuses that too, favoring "never silently drop acknowledged data"
  /// over auto-recovery; the operator inspects and rebuilds the log.) A
  /// nonempty file that is not a delta log — including one shorter than
  /// the header — is refused, never overwritten. Returns null with *error
  /// on failure.
  static std::unique_ptr<DeltaWriter> Open(const std::string& path,
                                           uint64_t base_checksum,
                                           uint32_t base_num_nodes,
                                           std::string* error,
                                           DeltaWriterOptions options = {});

  /// Appends one record holding `ops` and assigns it the next sequence
  /// number. Every endpoint must be < base_num_nodes() — a violating batch
  /// is rejected whole (the format layer's own enforcement that no record
  /// can ever be unreplayable, on top of the callers' earlier checks). An
  /// empty batch is valid (and replayable) but pointless; callers usually
  /// skip it.
  bool AppendOps(std::span<const DeltaOp> ops, std::string* error);

  /// Add-only convenience over AppendOps.
  bool Append(std::span<const std::pair<NodeId, NodeId>> edges,
              std::string* error);
  bool Append(std::initializer_list<std::pair<NodeId, NodeId>> edges,
              std::string* error) {
    return Append(std::span<const std::pair<NodeId, NodeId>>(edges.begin(),
                                                             edges.size()),
                  error);
  }

  uint64_t base_checksum() const { return base_checksum_; }
  /// Node count of the base graph (from the header; the endpoint bound).
  uint32_t base_num_nodes() const { return base_num_nodes_; }
  /// Sequence number the next Append will stamp.
  uint64_t next_seqno() const { return last_seqno_ + 1; }
  /// Records in the log (== last stamped sequence number).
  uint64_t record_count() const { return last_seqno_; }

 private:
  DeltaWriter() = default;

  int fd_ = -1;
  uint64_t base_checksum_ = 0;
  uint32_t base_num_nodes_ = 0;
  uint64_t last_seqno_ = 0;
  uint64_t chain_checksum_ = 0;  // checksum of the last record (seed chain)
  /// A failed append whose rollback ALSO failed left unknown bytes at the
  /// tail; further appends would land after them and become unreadable.
  /// All later Appends fail until the log is reopened (recovery rescans).
  bool poisoned_ = false;
  DeltaWriterOptions options_;
};

/// Sequential reader over a delta log: validates the header, then hands out
/// records one at a time from the first, verifying the base-checksum
/// binding, sequence numbering, and the seeded checksum chain as it goes.
/// It cannot start anywhere but the header: a reader that resumed mid-log
/// could not tell a log rewritten in place from the one it had applied. A
/// truncated or corrupt tail ends iteration at the last valid record
/// (`truncated()` reports it). Readers that serve a graph go through
/// ReadDeltaSince, which decides what such a tail means.
///
/// IO: the whole log comes into memory through ReadRegularFile
/// (util/mapped_file.h), as a snapshot does: mmap mode maps it read-only,
/// read mode reads it into one private buffer, and anything but a regular
/// file is refused. Delta logs are small next to their base snapshot, so
/// both are cheap. Caveat:
/// unlike snapshots (immutable, replaced by rename), a delta log mutates
/// in place — a concurrently recovering writer may ftruncate a torn tail,
/// and shrinking a mapped file SIGBUSes readers of the vanished pages.
/// Long-lived processes that poll a log while writers may restart (the
/// daemon's kRefresh) should therefore use kRead; one-shot CLI reads are
/// fine either way.
class DeltaReader {
 public:
  explicit DeltaReader(const std::string& path,
                       SnapshotIoMode mode = DefaultSnapshotIoMode());

  DeltaReader(const DeltaReader&) = delete;
  DeltaReader& operator=(const DeltaReader&) = delete;

  /// Header was valid; records may be read.
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  uint64_t base_checksum() const { return base_checksum_; }
  /// Node count of the base graph, from the header.
  uint32_t base_num_nodes() const { return base_num_nodes_; }

  /// Reads the next valid record into *out. Returns false at the end of
  /// the valid prefix — either a clean end of file, or a truncated/corrupt
  /// tail (distinguish with truncated()).
  bool Next(DeltaRecord* out);

  /// True once Next() has hit an invalid tail: bytes remain after the last
  /// valid record but they do not form one. tail_error() describes why,
  /// and tail_torn() distinguishes the two classes: true = the record
  /// simply runs past end-of-file (a crashed, never-acknowledged append —
  /// benign, the valid prefix is complete), false = full-size bytes that
  /// fail validation (corruption of acknowledged data — the prefix is NOT
  /// everything that was written; surface it, do not compact over it).
  bool truncated() const { return truncated_; }
  bool tail_torn() const { return tail_torn_; }
  const std::string& tail_error() const { return tail_error_; }

  /// Records successfully returned by Next() so far.
  uint64_t records_read() const { return records_read_; }

  /// Checksum-chain value after the last record Next() returned (the base
  /// checksum before any). Two logs agree on a prefix iff they agree on
  /// this value at its end — consumers resuming "after seqno N" compare it
  /// to detect a log that was truncated and rewritten with reused seqnos.
  uint64_t chain_checksum() const { return chain_checksum_; }

  /// Byte offset of the next unread record (the header size on a fresh
  /// reader).
  uint64_t offset() const { return offset_; }

 private:
  std::shared_ptr<const FileBytes> file_;  // the whole log
  uint64_t offset_ = 0;                    // next unread byte
  uint64_t base_checksum_ = 0;
  uint32_t base_num_nodes_ = 0;
  uint64_t chain_checksum_ = 0;
  uint64_t last_seqno_ = 0;
  uint64_t records_read_ = 0;
  bool truncated_ = false;
  bool tail_torn_ = false;
  std::string tail_error_;
  std::string error_;
};

/// Returns a copy of `g` with `ops` applied in batch order: for each
/// (src, dst) the LAST op in the batch wins (add-then-delete of one edge is
/// a delete, and vice versa), an add of a present edge and a delete of an
/// absent one change nothing, and the node set and labels are unchanged.
/// Every endpoint must be < g.NumNodes(); the caller validates
/// (ValidateOpEndpoints). This is the one rebuild step of delta replay and
/// the daemon's refresh.
Graph ApplyDeltaOps(const Graph& g, std::span<const DeltaOp> ops);

/// Add-only convenience over ApplyDeltaOps, for callers that deal in plain
/// edge batches.
Graph ApplyEdgesToGraph(const Graph& g,
                        std::span<const std::pair<NodeId, NodeId>> new_edges);

struct ReplayStats {
  uint64_t records_applied = 0;
  uint64_t edges_in_records = 0;  // ops in applied records, pre-normalize
  uint64_t delete_ops = 0;        // of which deletes
  uint64_t last_seqno = 0;        // 0 when nothing was applied
  /// Chain checksum at the resume point: the checksum of the record with
  /// seqno == after_seqno (the reader's base checksum when after_seqno is
  /// 0), or 0 if the log never reached after_seqno. A caller that stored
  /// this value when it applied record after_seqno compares it to detect a
  /// rewritten log (see DeltaReader::chain_checksum()).
  uint64_t resume_chain = 0;
  /// Chain checksum after the last applied record (== resume_chain when
  /// nothing applied); store it alongside last_seqno for the next resume.
  uint64_t end_chain = 0;
  /// Byte offset just past the last applied record (the resume-point
  /// offset when nothing applied). A poll that finds the log this size
  /// knows nothing was appended without reading it.
  uint64_t end_offset = 0;
};

/// Checks that every endpoint in `ops` names an existing node
/// (< num_nodes). False with a descriptive *error on the first violation —
/// the shared enforcement of the format's core precondition (a journaled
/// record must always replay against its base): DeltaWriter::AppendOps
/// checks before appending, and replay (CollectDeltaOps) before applying.
bool ValidateOpEndpoints(std::span<const DeltaOp> ops, uint32_t num_nodes,
                         std::string* error);

/// Reads every record of `reader` with seqno > `after_seqno`, validating
/// each endpoint against `num_nodes`, and appends their ops to *ops.
/// False (with *error) on an out-of-range endpoint or an unreadable log.
/// This is the record walk under ReadDeltaSince: it checks neither the
/// base binding nor the tail nor the applied prefix, so a graph that is
/// served goes through ReadDeltaSince instead.
bool CollectDeltaOps(DeltaReader& reader, uint32_t num_nodes,
                     uint64_t after_seqno, std::vector<DeltaOp>* ops,
                     ReplayStats* stats, std::string* error);

/// What ReadDeltaSince found past its resume point.
struct DeltaRead {
  /// The log was accepted; `ops` and `stats` hold what it adds.
  bool ok = false;
  /// On refusal: the log does not continue the caller's graph. It is bound
  /// to another base snapshot, or it no longer holds the applied prefix.
  /// False when the log is unreadable, corrupt, or names a node the base
  /// lacks.
  bool mismatch = false;
  /// The log ends in a torn, never-acknowledged append (a crash mid-write);
  /// every record before it was read.
  bool torn_tail = false;
  std::string error;
  std::vector<DeltaOp> ops;  // every op past the resume point, in log order
  ReplayStats stats;
};

/// The one way from a delta log to a served graph: the snapshot loads'
/// overlay, the daemon's opens, refreshes, maintenance polls and compaction
/// drains, and `rigpm_cli delta replay` all call this and hand the ops to
/// ApplyDeltaOps. Reads the log at `path` from its header and collects the
/// ops of every record with seqno > `since_seqno`, each endpoint checked
/// against `num_nodes`. `since_chain` is the chain checksum the caller
/// stored for record `since_seqno` (ReplayStats::end_chain; unused when
/// since_seqno is 0).
///
/// A missing or zero-length log (the first append creates it) is caught up:
/// ok, with nothing read. Refused, with `mismatch` set: a log bound to
/// another base than `base_checksum`, and one whose record since_seqno no
/// longer carries since_chain (truncated and rewritten with reused seqnos).
/// Refused without it: an unreadable log, an endpoint >= num_nodes, and a
/// corrupt record anywhere — full-size bytes that fail validation are
/// acknowledged data, and serving the prefix before them would drop it
/// silently. A torn tail is no refusal; `torn_tail` reports it.
DeltaRead ReadDeltaSince(const std::string& path, SnapshotIoMode io,
                         uint64_t base_checksum, uint32_t num_nodes,
                         uint64_t since_seqno = 0, uint64_t since_chain = 0);

}  // namespace rigpm

#endif  // RIGPM_STORAGE_DELTA_LOG_H_
