#include "enumerate/mjoin.h"

#include <cassert>

namespace rigpm {

namespace {

// A constraint binding search step `i` to an earlier step: the candidate at
// step i must appear in the RIG adjacency (forward or backward, depending on
// the query edge's direction) of the node matched at `earlier_pos`.
struct EarlierConstraint {
  QueryEdgeId edge = 0;
  uint32_t earlier_pos = 0;
  bool earlier_is_tail = false;  // true: edge = (q_earlier -> q_i)
};

class Enumerator {
 public:
  Enumerator(const PatternQuery& q, const Rig& rig,
             std::span<const QueryNodeId> order, const OccurrenceSink& sink,
             const MJoinOptions& opts, MJoinStats* stats)
      : q_(q), rig_(rig), order_(order), sink_(sink), opts_(opts),
        stats_(stats) {
    assert(order.size() == q.NumNodes());
    // Precompute, per search step, the constraints toward earlier steps.
    std::vector<uint32_t> pos(q.NumNodes());
    for (uint32_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
    constraints_.resize(order.size());
    for (QueryEdgeId e = 0; e < q.NumEdges(); ++e) {
      const QueryEdge& edge = q.Edge(e);
      uint32_t pf = pos[edge.from];
      uint32_t pt = pos[edge.to];
      if (pf < pt) {
        constraints_[pt].push_back({e, pf, /*earlier_is_tail=*/true});
      } else {
        constraints_[pf].push_back({e, pt, /*earlier_is_tail=*/false});
      }
    }
    tuple_.assign(q.NumNodes(), kInvalidNode);
  }

  uint64_t Run() {
    if (q_.NumNodes() != 0 && opts_.limit != 0) Descend(0);
    if (stats_ != nullptr) stats_->occurrences = produced_;
    return produced_;
  }

 private:
  // Recursive backtracking search (procedure `enumeration` of Algorithm 5).
  // Returns false when the enumeration must stop (limit hit / sink said no).
  bool Descend(uint32_t i) {
    if (i == order_.size()) {
      ++produced_;
      if (sink_ && !sink_(tuple_)) return false;
      return produced_ < opts_.limit;
    }
    if (stats_ != nullptr) {
      stats_->max_depth_reached =
          std::max<uint64_t>(stats_->max_depth_reached, i + 1);
    }

    QueryNodeId qi = order_[i];
    // Multiway intersection: cos(q_i) ∩ all adjacency lists of the already
    // matched neighbors (lines 4-7 of Algorithm 5).
    std::vector<const Bitmap*> inputs;
    inputs.reserve(constraints_[i].size() + 1);
    inputs.push_back(&rig_.Cos(qi));
    for (const EarlierConstraint& c : constraints_[i]) {
      NodeId matched = tuple_[order_[c.earlier_pos]];
      const Bitmap& adj = c.earlier_is_tail ? rig_.Forward(c.edge, matched)
                                            : rig_.Backward(c.edge, matched);
      inputs.push_back(&adj);
    }
    if (stats_ != nullptr) ++stats_->intersections;
    Bitmap cosi = Bitmap::AndMany(inputs);

    bool keep_going = true;
    cosi.ForEach([&](NodeId v) {
      if (!keep_going) return;
      if (stats_ != nullptr) ++stats_->candidates_scanned;
      tuple_[qi] = v;
      keep_going = Descend(i + 1);
    });
    tuple_[qi] = kInvalidNode;
    return keep_going;
  }

  const PatternQuery& q_;
  const Rig& rig_;
  std::span<const QueryNodeId> order_;
  const OccurrenceSink& sink_;
  const MJoinOptions& opts_;
  MJoinStats* stats_;

  std::vector<std::vector<EarlierConstraint>> constraints_;
  Occurrence tuple_;
  uint64_t produced_ = 0;
};

}  // namespace

uint64_t MJoin(const PatternQuery& q, const Rig& rig,
               std::span<const QueryNodeId> order, const OccurrenceSink& sink,
               const MJoinOptions& opts, MJoinStats* stats) {
  if (rig.AnyEmpty()) {
    if (stats != nullptr) stats->occurrences = 0;
    return 0;  // empty RIG: the answer is empty, no search needed
  }
  Enumerator e(q, rig, order, sink, opts, stats);
  return e.Run();
}

}  // namespace rigpm
