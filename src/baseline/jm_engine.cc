#include "baseline/jm_engine.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "sim/prefilter.h"

namespace rigpm {

namespace {

// Queries with at most this many edges get the exact DP plan.
constexpr size_t kDpMaxEdges = 16;

uint64_t PairKey(NodeId u, NodeId v) {
  return (static_cast<uint64_t>(u) << 32) | v;
}

// Materialized match set ms(e) of one query edge: the binary relation JM
// evaluates over (Section 1: "JM first computes the occurrences for each
// edge of the input query").
struct EdgeRelation {
  QueryEdgeId edge = 0;
  std::vector<std::pair<NodeId, NodeId>> pairs;
};

// Materializes every query edge's relation from the candidate sets. Stops
// with kOutOfMemory once the total pair count exceeds `max_total_pairs`:
// descendant edges can produce quadratically many pairs, which is exactly
// JM's failure mode.
EvalStatus BuildEdgeRelations(const MatchContext& ctx, const PatternQuery& q,
                              const CandidateSets& candidates,
                              uint64_t max_total_pairs,
                              std::vector<EdgeRelation>* out) {
  const Graph& g = ctx.graph();
  uint64_t total = 0;
  for (QueryEdgeId e = 0; e < q.NumEdges(); ++e) {
    const QueryEdge& edge = q.Edge(e);
    EdgeRelation rel;
    rel.edge = e;
    const Bitmap& dst = candidates[edge.to];
    std::vector<NodeId> dst_nodes;
    if (edge.kind != EdgeKind::kChild) dst_nodes = dst.ToVector();
    bool overflow = false;
    candidates[edge.from].ForEach([&](NodeId u) {
      if (overflow) return;
      if (edge.kind == EdgeKind::kChild) {
        for (NodeId v : g.OutNeighbors(u)) {
          if (dst.Contains(v)) rel.pairs.emplace_back(u, v);
        }
      } else {
        for (NodeId v : dst_nodes) {
          if (ctx.EdgePairMatch(edge, u, v)) rel.pairs.emplace_back(u, v);
        }
      }
      if (total + rel.pairs.size() > max_total_pairs) overflow = true;
    });
    if (overflow) return EvalStatus::kOutOfMemory;
    total += rel.pairs.size();
    out->push_back(std::move(rel));
  }
  return EvalStatus::kOk;
}

// Greedy left-deep plan: start from the smallest relation, repeatedly append
// the smallest relation sharing a query node with the covered set.
std::vector<size_t> GreedyPlan(const PatternQuery& q,
                               const std::vector<EdgeRelation>& rels) {
  const size_t m = rels.size();
  std::vector<uint8_t> used(m, 0);
  std::vector<uint8_t> covered(q.NumNodes(), 0);
  std::vector<size_t> plan;
  plan.reserve(m);

  size_t first = 0;
  for (size_t i = 1; i < m; ++i) {
    if (rels[i].pairs.size() < rels[first].pairs.size()) first = i;
  }
  plan.push_back(first);
  used[first] = 1;
  covered[q.Edge(rels[first].edge).from] = 1;
  covered[q.Edge(rels[first].edge).to] = 1;

  while (plan.size() < m) {
    size_t best = m;
    for (size_t i = 0; i < m; ++i) {
      if (used[i]) continue;
      const QueryEdge& e = q.Edge(rels[i].edge);
      if (!covered[e.from] && !covered[e.to]) continue;
      if (best == m || rels[i].pairs.size() < rels[best].pairs.size()) {
        best = i;
      }
    }
    if (best == m) {  // disconnected remainder: take the smallest
      for (size_t i = 0; i < m; ++i) {
        if (!used[i] && (best == m ||
                         rels[i].pairs.size() < rels[best].pairs.size())) {
          best = i;
        }
      }
    }
    plan.push_back(best);
    used[best] = 1;
    covered[q.Edge(rels[best].edge).from] = 1;
    covered[q.Edge(rels[best].edge).to] = 1;
  }
  return plan;
}

// Exact DP over edge subsets: minimizes the summed estimated sizes of all
// intermediate results of a left-deep plan (the classical Selinger-style
// optimization JM runs, Section 7.2).
std::vector<size_t> DpPlan(const PatternQuery& q,
                           const std::vector<EdgeRelation>& rels,
                           const CandidateSets& candidates,
                           uint64_t* plans_considered) {
  const size_t m = rels.size();
  std::vector<double> log_card(q.NumNodes());
  for (QueryNodeId v = 0; v < q.NumNodes(); ++v) {
    log_card[v] =
        std::log(std::max<uint64_t>(1, candidates[v].Cardinality()));
  }
  std::vector<double> log_sel(m);
  for (size_t i = 0; i < m; ++i) {
    const QueryEdge& e = q.Edge(rels[i].edge);
    double denom = std::max<double>(
        1.0, std::exp(log_card[e.from]) * std::exp(log_card[e.to]));
    log_sel[i] = std::log(
        std::max<double>(1.0, static_cast<double>(rels[i].pairs.size())) /
        denom);
  }
  auto log_size = [&](uint32_t mask) {
    // Covered nodes and per-edge selectivities, independence assumption.
    std::vector<uint8_t> covered(q.NumNodes(), 0);
    double s = 0.0;
    for (size_t i = 0; i < m; ++i) {
      if (!(mask & (1u << i))) continue;
      const QueryEdge& e = q.Edge(rels[i].edge);
      covered[e.from] = covered[e.to] = 1;
      s += log_sel[i];
    }
    for (QueryNodeId v = 0; v < q.NumNodes(); ++v) {
      if (covered[v]) s += log_card[v];
    }
    return s;
  };
  auto shares_node = [&](uint32_t mask, size_t i) {
    const QueryEdge& e = q.Edge(rels[i].edge);
    for (size_t j = 0; j < m; ++j) {
      if (!(mask & (1u << j))) continue;
      const QueryEdge& f = q.Edge(rels[j].edge);
      if (e.from == f.from || e.from == f.to || e.to == f.from ||
          e.to == f.to) {
        return true;
      }
    }
    return false;
  };

  const uint32_t full = (1u << m) - 1;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> cost(full + 1, kInf);
  std::vector<int8_t> last(full + 1, -1);
  uint64_t expanded = 0;
  for (size_t i = 0; i < m; ++i) {
    uint32_t mask = 1u << i;
    cost[mask] = std::exp(log_size(mask));
    last[mask] = static_cast<int8_t>(i);
  }
  for (uint32_t mask = 1; mask <= full; ++mask) {
    if (cost[mask] == kInf) continue;
    for (size_t i = 0; i < m; ++i) {
      if (mask & (1u << i)) continue;
      if (!shares_node(mask, i)) continue;
      uint32_t next = mask | (1u << i);
      ++expanded;
      double c = cost[mask] + std::exp(log_size(next));
      if (c < cost[next]) {
        cost[next] = c;
        last[next] = static_cast<int8_t>(i);
      }
    }
  }
  if (plans_considered != nullptr) *plans_considered = expanded;
  if (last[full] < 0) return GreedyPlan(q, rels);  // disconnected safety net

  std::vector<size_t> plan(m);
  uint32_t mask = full;
  for (size_t i = m; i-- > 0;) {
    size_t rel = static_cast<size_t>(last[mask]);
    plan[i] = rel;
    mask &= ~(1u << rel);
  }
  return plan;
}

// Executes the plan's binary joins, materializing every intermediate
// result, into *out. Returns kOutOfMemory when a result outgrows
// `max_tuples`, kTimeout when `clock` expires between two joins.
EvalStatus ExecutePlan(const PatternQuery& q,
                       const std::vector<EdgeRelation>& rels,
                       const std::vector<size_t>& plan, uint64_t max_tuples,
                       const RunClock& clock, uint64_t* peak,
                       std::vector<std::vector<NodeId>>* out) {
  const uint32_t n = q.NumNodes();
  std::vector<std::vector<NodeId>>& intermediate = *out;
  std::vector<uint8_t> covered(n, 0);

  for (size_t step = 0; step < plan.size(); ++step) {
    const EdgeRelation& rel = rels[plan[step]];
    const QueryEdge& e = q.Edge(rel.edge);
    if (clock.Expired()) return EvalStatus::kTimeout;

    if (step == 0) {
      intermediate.reserve(rel.pairs.size());
      for (const auto& [u, v] : rel.pairs) {
        if (e.from == e.to && u != v) continue;
        std::vector<NodeId> t(n, kInvalidNode);
        t[e.from] = u;
        t[e.to] = v;
        intermediate.push_back(std::move(t));
      }
    } else {
      std::vector<std::vector<NodeId>> next;
      bool from_cov = covered[e.from] != 0;
      bool to_cov = covered[e.to] != 0;
      if (from_cov && to_cov) {
        std::unordered_set<uint64_t> pair_set;
        pair_set.reserve(rel.pairs.size() * 2);
        for (const auto& [u, v] : rel.pairs) pair_set.insert(PairKey(u, v));
        for (auto& t : intermediate) {
          if (pair_set.count(PairKey(t[e.from], t[e.to])) > 0) {
            next.push_back(std::move(t));
          }
        }
      } else if (from_cov || to_cov) {
        QueryNodeId probe = from_cov ? e.from : e.to;
        QueryNodeId extend = from_cov ? e.to : e.from;
        std::unordered_map<NodeId, std::vector<NodeId>> index;
        for (const auto& [u, v] : rel.pairs) {
          if (from_cov) {
            index[u].push_back(v);
          } else {
            index[v].push_back(u);
          }
        }
        for (const auto& t : intermediate) {
          auto it = index.find(t[probe]);
          if (it == index.end()) continue;
          for (NodeId w : it->second) {
            std::vector<NodeId> nt = t;
            nt[extend] = w;
            next.push_back(std::move(nt));
            if (next.size() > max_tuples) return EvalStatus::kOutOfMemory;
          }
        }
      } else {
        // Cartesian product (disconnected plan prefix; rare).
        for (const auto& t : intermediate) {
          for (const auto& [u, v] : rel.pairs) {
            std::vector<NodeId> nt = t;
            nt[e.from] = u;
            nt[e.to] = v;
            next.push_back(std::move(nt));
            if (next.size() > max_tuples) return EvalStatus::kOutOfMemory;
          }
        }
      }
      intermediate = std::move(next);
    }
    covered[e.from] = covered[e.to] = 1;
    *peak = std::max<uint64_t>(*peak, intermediate.size());
    if (intermediate.size() > max_tuples) return EvalStatus::kOutOfMemory;
  }
  return EvalStatus::kOk;
}

}  // namespace

BaselineResult JmEvaluate(const MatchContext& ctx, const PatternQuery& q,
                          const BaselineOptions& opts,
                          const OccurrenceSink& sink, bool use_prefilter,
                          uint64_t max_intermediate_tuples) {
  BaselineResult result;
  RunClock clock(opts.timeout_ms);

  // --- Candidates + edge relations.
  CandidateSets candidates = use_prefilter ? PreFilter(ctx, q, SimOptions{})
                                           : InitialMatchSets(ctx.graph(), q);
  std::vector<EdgeRelation> rels;
  result.status = BuildEdgeRelations(ctx, q, candidates,
                                     max_intermediate_tuples, &rels);
  clock.EndPhase("Relations", &result);
  if (result.status == EvalStatus::kOk && clock.Expired()) {
    result.status = EvalStatus::kTimeout;
  }
  if (result.status != EvalStatus::kOk) return result;

  // --- Left-deep plan.
  uint64_t plans_considered = 0;
  std::vector<size_t> plan =
      rels.size() <= kDpMaxEdges
          ? DpPlan(q, rels, candidates, &plans_considered)
          : GreedyPlan(q, rels);
  clock.EndPhase("Plan", &result);

  // --- Joins, then emit.
  uint64_t peak = 0;
  std::vector<std::vector<NodeId>> tuples;
  result.status = ExecutePlan(q, rels, plan, max_intermediate_tuples, clock,
                              &peak, &tuples);
  for (const auto& t : tuples) {
    if (result.status != EvalStatus::kOk ||
        result.num_occurrences >= opts.limit) {
      break;
    }
    ++result.num_occurrences;
    if (sink && !sink(t)) break;
  }
  clock.EndPhase("Join", &result);
  result.counters = {{"plans_considered", plans_considered},
                     {"peak_intermediate", peak}};
  return result;
}

}  // namespace rigpm
