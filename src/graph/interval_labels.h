#ifndef RIGPM_GRAPH_INTERVAL_LABELS_H_
#define RIGPM_GRAPH_INTERVAL_LABELS_H_

#include <cstdint>
#include <memory>

#include "graph/scc.h"
#include "util/owned_span.h"

namespace rigpm {

/// DFS interval labels (begin, end), one pair per component of the SCC
/// condensation of a data graph (Section 4.5). BflIndex reads them for its
/// interval cuts.
///
/// Properties (cu, cv distinct components):
///  * negative cut:   CompEnd(cu) < CompBegin(cv)  =>  cu does NOT reach cv.
///  * positive cut:   CompBegin(cu) < CompBegin(cv) &&
///                    CompEnd(cv) <= CompEnd(cu)
///                    => cu reaches cv (cv lies in cu's DFS subtree).
/// These hold because the DFS runs over the condensation DAG and a
/// component undiscovered when `cu` finishes can never be below `cu` in the
/// DFS forest.
class IntervalLabels {
 public:
  /// Builds labels over an already-computed condensation.
  explicit IntervalLabels(const Condensation& cond);

  uint32_t CompBegin(uint32_t comp) const { return begin_[comp]; }
  uint32_t CompEnd(uint32_t comp) const { return end_[comp]; }

  /// Component count the labels were built over (validation on snapshot
  /// load: it must match the condensation the labels are used with).
  uint64_t NumComponents() const { return begin_.size(); }

  /// Appends a binary image to `sink` (see storage/snapshot.h).
  void Serialize(ByteSink& sink) const;

  /// Decodes an image written by Serialize. On malformed input `src.ok()`
  /// turns false and empty labels are returned.
  static IntervalLabels Deserialize(ByteSource& src);

 private:
  IntervalLabels() = default;  // for Deserialize only

  // Owned when built; borrowed views into the snapshot mapping when loaded
  // zero-copy (storage_ keeps the mapping alive).
  OwnedOrBorrowedSpan<uint32_t> begin_;  // per component
  OwnedOrBorrowedSpan<uint32_t> end_;    // per component
  std::shared_ptr<const void> storage_;
};

}  // namespace rigpm

#endif  // RIGPM_GRAPH_INTERVAL_LABELS_H_
