#ifndef RIGPM_ENGINE_INCREMENTAL_H_
#define RIGPM_ENGINE_INCREMENTAL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/gm_engine.h"
#include "storage/delta_log.h"

namespace rigpm {

/// The exact answer difference one op batch caused:
/// added = Answer(G') \ Answer(G), removed = Answer(G) \ Answer(G').
struct MatchDelta {
  std::vector<Occurrence> added;
  std::vector<Occurrence> removed;
};

/// Incremental hybrid-pattern matching on a mutating data graph — the
/// "dynamic data graph setting where matches are computed incrementally"
/// the paper names as future work (Section 9), extended past growth-only:
/// a batch may mix edge insertions and deletions.
///
/// `ApplyOpsAndDiff` ingests an op batch and returns the exact answer
/// delta. Both directions use an enumeration filtered through the OTHER
/// generation's oracle: an occurrence is newly ADDED iff at least one of
/// its query-edge images was not matched in the old graph (a child edge
/// mapping to an inserted edge, or a descendant edge whose path requires
/// one), and an occurrence is RETRACTED iff it held on the old graph but
/// at least one query-edge image no longer matches on the new one (a
/// deleted edge, or reachability a deletion severed). Monotone batches
/// skip the side they cannot affect: an add-only batch never retracts a
/// match (answers are monotone in the edge set), so the old-graph
/// enumeration is skipped entirely — exactly the PR 5 growth-only cost —
/// and a delete-only batch symmetrically skips the no-new-matches probe.
///
/// Cost model: a full (but RIG-pruned) enumeration per affected side, plus
/// one cross-generation edge/reachability probe per query edge per result
/// — the natural baseline the paper's future incremental algorithm would
/// be compared against.
///
/// Persistence: attach a DeltaWriter (storage/delta_log.h) and every
/// accepted batch is journaled as one delta record BEFORE it is applied
/// (write-ahead), so `base.snap + graph.delta` always reconstructs the
/// matcher's current graph — the serving tier refreshes from the log
/// instead of re-dumping the whole snapshot.
class IncrementalMatcher {
 public:
  /// Starts from `initial`. The matcher owns its graphs.
  IncrementalMatcher(Graph initial, PatternQuery query,
                     GmOptions options = {});

  const Graph& current_graph() const { return *current_; }
  const PatternQuery& query() const { return query_; }

  /// Occurrences of the query on the current graph (streamed; bounded by
  /// options.limit).
  std::vector<Occurrence> CurrentAnswer() const;

  /// Journals every subsequently accepted batch through `writer` (null
  /// detaches). Write-ahead: ApplyOpsAndDiff appends the normalized batch
  /// and only applies it once the record is durable, so a crash can lose
  /// an unapplied record (harmless — replay is idempotent) but never an
  /// applied-but-unjournaled batch. The writer must outlive the matcher or
  /// be detached first.
  void AttachJournal(DeltaWriter* writer) { journal_ = writer; }

  /// Applies the op batch and returns the exact occurrence delta it
  /// caused.
  ///
  /// Error path: every op must connect nodes that already exist; a batch
  /// naming a node id >= NumNodes() is rejected whole — nullopt, *error
  /// says which edge — and neither the graph nor the journal changes.
  /// (Node insertions are modeled by growing the graph out-of-band and
  /// re-constructing; silently journaling such an op would poison the
  /// delta log with a record that can never replay against its base.) A
  /// journal append failure is also reported here, again with the batch
  /// left unapplied.
  std::optional<MatchDelta> ApplyOpsAndDiff(const std::vector<DeltaOp>& ops,
                                            std::string* error = nullptr);

 private:
  PatternQuery query_;
  GmOptions options_;
  std::unique_ptr<Graph> current_;
  std::unique_ptr<GmEngine> engine_;
  DeltaWriter* journal_ = nullptr;  // not owned
};

}  // namespace rigpm

#endif  // RIGPM_ENGINE_INCREMENTAL_H_
