#include "engine/incremental.h"

#include <algorithm>

namespace rigpm {

IncrementalMatcher::IncrementalMatcher(Graph initial, PatternQuery query,
                                       GmOptions options)
    : query_(std::move(query)), options_(options) {
  current_ = std::make_unique<Graph>(std::move(initial));
  engine_ = std::make_unique<GmEngine>(*current_);
}

std::vector<Occurrence> IncrementalMatcher::CurrentAnswer() const {
  return engine_->EvaluateCollect(query_, options_);
}

std::optional<MatchDelta> IncrementalMatcher::ApplyOpsAndDiff(
    const std::vector<DeltaOp>& ops, std::string* error) {
  // Both endpoints must already exist — reject the whole batch before any
  // state (graph or journal) changes. An out-of-range endpoint is a node
  // insertion in disguise, and a journaled record naming it could never be
  // replayed against the base the log is bound to.
  std::string endpoint_error;
  if (!ValidateOpEndpoints(ops, current_->NumNodes(), &endpoint_error)) {
    if (error != nullptr) {
      *error = endpoint_error + " (insert nodes out-of-band, then "
               "reconstruct)";
    }
    return std::nullopt;
  }

  // Normalize to exactly the ops that change the graph (last-op-wins
  // within the batch, no-ops against the current adjacency dropped), so
  // repeated/overlapping batches cannot grow the rebuild input and the
  // journal records exactly the mutations applied (the same shared
  // definition replay uses, so the two cannot diverge).
  std::vector<DeltaOp> fresh = ops;
  NormalizeDeltaOps(*current_, &fresh);

  // Nothing genuinely changes (a retried or duplicate-only batch): the
  // diff is empty by definition — skip the journal, the graph rebuild, the
  // index rebuild, and the re-enumerations outright.
  if (fresh.empty()) return MatchDelta{};

  bool has_add = false;
  bool has_delete = false;
  for (const DeltaOp& op : fresh) {
    (op.kind == DeltaOpKind::kAdd ? has_add : has_delete) = true;
  }

  // Write-ahead journaling: the record must be durable before the batch is
  // applied. On failure (including the version refusal for delete ops in a
  // pre-ops log) the matcher state is untouched, so the caller can retry.
  if (journal_ != nullptr) {
    if (!journal_->AppendOps(fresh, error)) return std::nullopt;
  }

  // Keep the old graph + reachability as the cross-generation oracle while
  // the other generation's engine enumerates.
  std::unique_ptr<Graph> old_graph = std::move(current_);
  std::unique_ptr<GmEngine> old_engine = std::move(engine_);
  current_ = std::make_unique<Graph>(
      ApplyDeltaOps(*old_graph, fresh, /*already_normalized=*/true));
  engine_ = std::make_unique<GmEngine>(*current_);

  // An occurrence holds on a generation iff every query edge matches
  // there; probing per result keeps the delta exact even when the batch
  // changes reachability only transitively.
  auto matched_in = [&](const Graph& g, const ReachabilityIndex& reach,
                        const Occurrence& t) {
    for (const QueryEdge& e : query_.Edges()) {
      NodeId u = t[e.from];
      NodeId v = t[e.to];
      bool ok = (e.kind == EdgeKind::kChild) ? g.HasEdge(u, v)
                                             : reach.Reaches(u, v);
      if (!ok) return false;
    }
    return true;
  };

  MatchDelta delta;
  // added = enumerate NEW, drop what the old graph already matched. An
  // answer is monotone in the edge set, so a delete-only batch cannot
  // create matches — skip the whole enumeration.
  if (has_add) {
    const Graph& og = *old_graph;
    const ReachabilityIndex& old_reach = old_engine->reach();
    engine_->Evaluate(query_, options_, [&](const Occurrence& t) {
      if (!matched_in(og, old_reach, t)) delta.added.push_back(t);
      return true;
    });
  }
  // removed = enumerate OLD, drop what still matches on the new graph —
  // the retraction pass; symmetrically skipped for add-only batches.
  if (has_delete) {
    const Graph& ng = *current_;
    const ReachabilityIndex& new_reach = engine_->reach();
    old_engine->Evaluate(query_, options_, [&](const Occurrence& t) {
      if (!matched_in(ng, new_reach, t)) delta.removed.push_back(t);
      return true;
    });
  }
  return delta;
}

}  // namespace rigpm
