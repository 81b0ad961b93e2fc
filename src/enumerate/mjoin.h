#ifndef RIGPM_ENUMERATE_MJOIN_H_
#define RIGPM_ENUMERATE_MJOIN_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "query/pattern_query.h"
#include "rig/rig.h"

namespace rigpm {

/// One occurrence of the query: occurrence[q] is the data node matched to
/// query node q (Definition 2.6 — one row of the answer relation).
using Occurrence = std::vector<NodeId>;

/// Receives each occurrence as it is produced; return false to stop the
/// enumeration early. The referenced vector is reused between calls — copy
/// it if it must outlive the callback.
using OccurrenceSink = std::function<bool(const Occurrence&)>;

/// A query edge binding search step i to an earlier step: the candidate at
/// step i must be adjacent along `edge` (forward or backward, by the edge's
/// direction) to the node matched at step `earlier_pos`.
struct EarlierConstraint {
  QueryEdgeId edge = 0;
  uint32_t earlier_pos = 0;
  bool earlier_is_tail = false;  // true: edge = (q_earlier -> q_i)
};

/// Per search step of `order`, the query edges toward earlier steps: each
/// edge joins the step of whichever endpoint `order` places later. A loop
/// (from == to) joins no step, since its one endpoint is never earlier than
/// itself: ExpandRig gives it only the diagonal pairs of cos(p), and the
/// ISO and WCOJ baselines test it on each candidate. MJoin and those
/// baselines' shared search (baseline/data_search.h) use it.
std::vector<std::vector<EarlierConstraint>> EarlierConstraints(
    const PatternQuery& q, std::span<const QueryNodeId> order);

struct MJoinOptions {
  /// Emit at most this many occurrences (the experiments cap at 1e7); 0
  /// emits none and never calls the sink.
  uint64_t limit = std::numeric_limits<uint64_t>::max();
};

struct MJoinStats {
  uint64_t occurrences = 0;        // tuples emitted
  uint64_t intersections = 0;      // search steps, one cos_i each
  uint64_t candidates_scanned = 0; // nodes of the cos_i sets taken, visited
                                   // or (sinkless last step) counted
  uint64_t max_depth_reached = 0;
};

/// Algorithm 5, MJoin: worst-case-optimal, query-node-at-a-time enumeration
/// over a runtime index graph. At search step i the local candidate set is
///   cos_i = cos(q_i) ∩ ⋂ { adjacency of t[j] in G_Q : q_j earlier nbr }
/// computed as one multiway bitmap intersection; the recursion therefore
/// never materializes partial join results (space O(n * MaxCos),
/// Theorem 5.1).
///
/// Every RIG row is a subset of the cos set it points into (rig.h), and
/// ExpandRig already enforced each query loop on cos(p), so a step
/// intersects only its matched neighbours' rows: a row as large as
/// cos(q_i) is cos(q_i) and is left out, an empty row ends the step,
/// cos(q_i) is walked only when no row is left, and a single row is walked
/// in place. Two or more rows go smallest-first through
/// Bitmap::AndManyInto into a vector the step reuses, so a search step
/// makes no heap allocation once its buffers have grown. Every step visits
/// its candidates in ascending node id.
///
/// With a null sink nobody sees the tuples, so the last step adds
/// min(|cos_n|, limit - produced) to the count instead of visiting each
/// candidate; the count, the stats and whether the limit was hit are the
/// same as with a sink that accepts everything.
///
/// Returns the number of occurrences emitted. `order` must be a permutation
/// of the query nodes; connected prefixes (as produced by ComputeSearchOrder)
/// avoid Cartesian blowups but any permutation is correct.
uint64_t MJoin(const PatternQuery& q, const Rig& rig,
               std::span<const QueryNodeId> order, const OccurrenceSink& sink,
               const MJoinOptions& opts = {}, MJoinStats* stats = nullptr);

}  // namespace rigpm

#endif  // RIGPM_ENUMERATE_MJOIN_H_
