#include "enumerate/mjoin.h"

#include <algorithm>
#include <cassert>

namespace rigpm {

namespace {

// What one search step keeps from visit to visit, so that a step makes no
// heap allocation once its vectors have grown to the sizes it needs.
struct StepBuffers {
  // The matched neighbours' rows that are not all of cos(q_i).
  std::vector<const Bitmap*> rows;
  // Their intersection, when two or more rows are left.
  std::vector<NodeId> candidates;
};

class Enumerator {
 public:
  Enumerator(const PatternQuery& q, const Rig& rig,
             std::span<const QueryNodeId> order, const OccurrenceSink& sink,
             const MJoinOptions& opts, MJoinStats* stats)
      : q_(q), rig_(rig), order_(order), sink_(sink), opts_(opts),
        stats_(stats) {
    assert(order.size() == q.NumNodes());
    constraints_ = EarlierConstraints(q, order);
    steps_.resize(order.size());
    for (uint32_t i = 0; i < order.size(); ++i) {
      steps_[i].rows.reserve(constraints_[i].size());
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
      // Only a run with a sink gets here; a sinkless last step counts.
      ++produced_;
      if (!sink_(tuple_)) return false;
      return produced_ < opts_.limit;
    }
    if (stats_ != nullptr) {
      stats_->max_depth_reached =
          std::max<uint64_t>(stats_->max_depth_reached, i + 1);
      ++stats_->intersections;
    }

    // cos_i = cos(q_i) ∩ the rows of the already matched neighbours (lines
    // 4-7 of Algorithm 5). Every row is a subset of cos(q_i) (rig.h), so a
    // row as large as cos(q_i) is cos(q_i), and cos(q_i) itself is needed
    // only when no other row is left.
    const QueryNodeId qi = order_[i];
    const Bitmap& cos = rig_.Cos(qi);
    StepBuffers& step = steps_[i];
    step.rows.clear();
    for (const EarlierConstraint& c : constraints_[i]) {
      NodeId matched = tuple_[order_[c.earlier_pos]];
      const Bitmap& row = c.earlier_is_tail ? rig_.Forward(c.edge, matched)
                                            : rig_.Backward(c.edge, matched);
      if (row.Empty()) return true;
      if (row.Cardinality() != cos.Cardinality()) step.rows.push_back(&row);
    }
    const Bitmap* single = nullptr;  // the one set left, walked in place
    if (step.rows.size() <= 1) {
      single = step.rows.empty() ? &cos : step.rows.front();
    } else {
      std::sort(step.rows.begin(), step.rows.end(),
                [](const Bitmap* a, const Bitmap* b) {
                  return a->Cardinality() < b->Cardinality();
                });
      Bitmap::AndManyInto(step.rows, &step.candidates);
    }

    if (!sink_ && i + 1 == order_.size()) {
      // Nobody sees the occurrences: each candidate completes one, so the
      // last step counts them up to the limit instead of visiting them.
      const uint64_t found =
          single != nullptr ? single->Cardinality() : step.candidates.size();
      const uint64_t taken = std::min(found, opts_.limit - produced_);
      produced_ += taken;
      if (stats_ != nullptr) stats_->candidates_scanned += taken;
      return produced_ < opts_.limit;
    }

    auto visit = [&](NodeId v) {
      if (stats_ != nullptr) ++stats_->candidates_scanned;
      tuple_[qi] = v;
      return Descend(i + 1);
    };
    bool keep_going = true;
    if (single != nullptr) {
      keep_going = single->ForEach(visit);
    } else {
      for (NodeId v : step.candidates) {
        keep_going = visit(v);
        if (!keep_going) break;
      }
    }
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
  std::vector<StepBuffers> steps_;  // one per search step
  Occurrence tuple_;
  uint64_t produced_ = 0;
};

}  // namespace

std::vector<std::vector<EarlierConstraint>> EarlierConstraints(
    const PatternQuery& q, std::span<const QueryNodeId> order) {
  std::vector<uint32_t> pos(q.NumNodes());
  for (uint32_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  std::vector<std::vector<EarlierConstraint>> constraints(order.size());
  for (QueryEdgeId e = 0; e < q.NumEdges(); ++e) {
    const uint32_t pf = pos[q.Edge(e).from];
    const uint32_t pt = pos[q.Edge(e).to];
    if (pf < pt) {
      constraints[pt].push_back({e, pf, /*earlier_is_tail=*/true});
    } else if (pt < pf) {
      constraints[pf].push_back({e, pt, /*earlier_is_tail=*/false});
    }
  }
  return constraints;
}

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
