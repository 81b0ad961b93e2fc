#ifndef RIGPM_REACH_BFL_INDEX_H_
#define RIGPM_REACH_BFL_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "graph/interval_labels.h"
#include "graph/scc.h"
#include "reach/reachability.h"
#include "util/owned_span.h"
#include "util/serde.h"

namespace rigpm {

/// Bloom Filter Labeling reachability index (after Su, Zhu, Wei, Yu:
/// "Reachability Querying: Can It Be Even Faster?", TKDE 2017) — the scheme
/// the paper uses for all descendant-edge checks.
///
/// Per condensation component c the index stores:
///  * DFS interval labels (begin, end) — positive cut (subtree containment
///    proves reachability) and negative cut (end(u) < begin(v) proves
///    non-reachability);
///  * L_out(c): a k-bit Bloom set of hashes of components reachable from c;
///  * L_in(c):  a Bloom set of hashes of components that reach c.
///
/// Query u ≺ v: after the O(1) cuts, a guided DFS explores successors while
/// pruning any component whose labels fail the necessary conditions
///   L_out(v) ⊆ L_out(c)   and   interval-negative-cut(c, v).
/// The index is exact: the Bloom sets only ever prune true negatives.
///
/// These are the engine's only interval labels. RIG expansion probes each
/// descendant pair through Reaches instead of cutting its scan of cos(q)
/// with them (rig/rig_builder.h), so the interval cut is applied here.
class BflIndex : public ReachabilityIndex {
 public:
  /// `bits` is the Bloom label width (default 256, as a few cache lines per
  /// node gave the best trade-off in the BFL paper).
  explicit BflIndex(const Graph& g, uint32_t bits = 256,
                    uint64_t seed = 0x9E3779B97F4A7C15ull);

  bool Reaches(NodeId u, NodeId v) const override;
  std::string Name() const override { return "BFL"; }
  size_t MemoryBytes() const override;

  /// Exposed for the white-box tests: true iff the Bloom/interval cuts alone
  /// decide the query (no DFS needed).
  bool DecidedByCuts(NodeId u, NodeId v, bool* result) const;

  const Condensation& condensation() const override { return cond_; }

  /// Appends a binary image (condensation, interval labels, and the packed
  /// Bloom label arrays) to `sink`; see storage/snapshot.h.
  void Serialize(ByteSink& sink) const;

  /// Decodes an image written by Serialize. Returns nullptr on malformed
  /// input (with `src.ok()` false).
  static std::unique_ptr<BflIndex> Deserialize(ByteSource& src);

 private:
  BflIndex(Condensation cond, IntervalLabels intervals)
      : cond_(std::move(cond)), intervals_(std::move(intervals)) {}

  bool CompReaches(uint32_t cu, uint32_t cv) const;

  // L_out(sub) subset-of L_out(super) over the packed label words.
  bool OutSubset(uint32_t sub, uint32_t super) const;
  bool InSubset(uint32_t sub, uint32_t super) const;

  Condensation cond_;
  IntervalLabels intervals_;
  uint32_t words_;  // label width in 64-bit words
  // Owned when built; borrowed views into the snapshot mapping when loaded
  // zero-copy (storage_ keeps the mapping alive).
  OwnedOrBorrowedSpan<uint64_t> l_out_;  // nc * words_
  OwnedOrBorrowedSpan<uint64_t> l_in_;   // nc * words_
  std::shared_ptr<const void> storage_;

  // Scratch for the guided-DFS fallback. One engine's index is shared by
  // every worker (EvaluateBatch, the daemon's query workers), so the rare
  // queries the O(1) cuts cannot decide serialize on this mutex; the cut
  // paths above stay lock-free.
  mutable std::mutex scratch_mu_;
  mutable std::vector<uint32_t> visited_epoch_;
  mutable uint32_t epoch_ = 0;
  mutable std::vector<uint32_t> stack_;
};

}  // namespace rigpm

#endif  // RIGPM_REACH_BFL_INDEX_H_
