#include "order/search_order.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

namespace rigpm {

const char* OrderStrategyName(OrderStrategy s) {
  switch (s) {
    case OrderStrategy::kJO:
      return "JO";
    case OrderStrategy::kRI:
      return "RI";
    case OrderStrategy::kBJ:
      return "BJ";
  }
  return "?";
}

namespace {

// Undirected neighbor lists of the query.
std::vector<std::vector<QueryNodeId>> UndirectedNeighbors(
    const PatternQuery& q) {
  std::vector<std::vector<QueryNodeId>> nbrs(q.NumNodes());
  for (const QueryEdge& e : q.Edges()) {
    nbrs[e.from].push_back(e.to);
    nbrs[e.to].push_back(e.from);
  }
  for (auto& list : nbrs) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return nbrs;
}

// |cos(q)| per query node, the cardinality JO orders GM by.
std::vector<uint64_t> CosSizes(const Rig& rig) {
  std::vector<uint64_t> card(rig.NumQueryNodes());
  for (QueryNodeId v = 0; v < card.size(); ++v) {
    card[v] = rig.Cos(v).Cardinality();
  }
  return card;
}

// BJ: exact DP over connected subsets. Cost model: the estimated number of
// intermediate tuples after each extension, with per-edge selectivity
// |cos(e)| / (|cos(p)| * |cos(q)|) and independence across edges.
std::vector<QueryNodeId> BjOrder(const PatternQuery& q, const Rig& rig,
                                 OrderStats* stats) {
  const uint32_t n = q.NumNodes();
  auto nbrs = UndirectedNeighbors(q);

  // log-scale sizes avoid overflow: log|S| = sum log|cos(v)| + sum log sel(e).
  std::vector<double> log_card(n);
  for (QueryNodeId v = 0; v < n; ++v) {
    log_card[v] = std::log(std::max<uint64_t>(1, rig.Cos(v).Cardinality()));
  }
  std::vector<double> log_sel(q.NumEdges());
  for (QueryEdgeId e = 0; e < q.NumEdges(); ++e) {
    const QueryEdge& edge = q.Edge(e);
    double denom = std::max<double>(
        1.0, static_cast<double>(rig.Cos(edge.from).Cardinality()) *
                 static_cast<double>(rig.Cos(edge.to).Cardinality()));
    double num = std::max<double>(1.0, static_cast<double>(rig.EdgeCount(e)));
    log_sel[e] = std::log(num / denom);  // <= 0
  }

  auto subset_log_size = [&](uint32_t mask) {
    double s = 0.0;
    for (QueryNodeId v = 0; v < n; ++v) {
      if (mask & (1u << v)) s += log_card[v];
    }
    for (QueryEdgeId e = 0; e < q.NumEdges(); ++e) {
      const QueryEdge& edge = q.Edge(e);
      if ((mask & (1u << edge.from)) && (mask & (1u << edge.to))) {
        s += log_sel[e];
      }
    }
    return s;
  };

  const uint32_t full = (n == 32) ? 0xFFFFFFFFu : ((1u << n) - 1);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // cost[mask] = min total (sum over prefixes of exp(log_size)); we keep the
  // sum in linear space since individual terms can be huge but doubles cope.
  std::vector<double> cost(full + 1, kInf);
  std::vector<int8_t> last(full + 1, -1);
  uint64_t expanded = 0;

  for (QueryNodeId v = 0; v < n; ++v) {
    uint32_t m = 1u << v;
    cost[m] = std::exp(subset_log_size(m));
    last[m] = static_cast<int8_t>(v);
  }
  for (uint32_t mask = 1; mask <= full; ++mask) {
    if (cost[mask] == kInf) continue;
    // Extend with a connected new node.
    for (QueryNodeId v = 0; v < n; ++v) {
      if (mask & (1u << v)) continue;
      bool connected = false;
      for (QueryNodeId w : nbrs[v]) {
        if (mask & (1u << w)) {
          connected = true;
          break;
        }
      }
      if (!connected && mask != 0) continue;
      uint32_t next_mask = mask | (1u << v);
      ++expanded;
      double next_cost = cost[mask] + std::exp(subset_log_size(next_mask));
      if (next_cost < cost[next_mask]) {
        cost[next_mask] = next_cost;
        last[next_mask] = static_cast<int8_t>(v);
      }
    }
  }
  if (stats != nullptr) stats->plans_considered = expanded;

  std::vector<QueryNodeId> order(n);
  uint32_t mask = full;
  for (uint32_t i = n; i-- > 0;) {
    QueryNodeId v = static_cast<QueryNodeId>(last[mask]);
    order[i] = v;
    mask &= ~(1u << v);
  }
  return order;
}

}  // namespace

std::vector<QueryNodeId> JoOrder(const PatternQuery& q,
                                 std::span<const uint64_t> card) {
  const uint32_t n = q.NumNodes();
  auto nbrs = UndirectedNeighbors(q);
  std::vector<uint8_t> chosen(n, 0);
  std::vector<QueryNodeId> order;
  if (n == 0) return order;
  order.reserve(n);

  // Start node: smallest cardinality.
  QueryNodeId best = 0;
  for (QueryNodeId v = 1; v < n; ++v) {
    if (card[v] < card[best]) best = v;
  }
  order.push_back(best);
  chosen[best] = 1;

  while (order.size() < n) {
    QueryNodeId next = kInvalidNode;
    uint64_t best_card = std::numeric_limits<uint64_t>::max();
    for (QueryNodeId in_order : order) {
      for (QueryNodeId cand : nbrs[in_order]) {
        if (chosen[cand]) continue;
        if (card[cand] < best_card ||
            (card[cand] == best_card && cand < next)) {
          best_card = card[cand];
          next = cand;
        }
      }
    }
    if (next == kInvalidNode) {
      // Disconnected query (should not happen per Definition 2.4): append
      // the smallest remaining node to stay total.
      for (QueryNodeId v = 0; v < n; ++v) {
        if (!chosen[v] && (next == kInvalidNode || card[v] < card[next])) {
          next = v;
        }
      }
    }
    order.push_back(next);
    chosen[next] = 1;
  }
  return order;
}

std::vector<QueryNodeId> RiOrder(const PatternQuery& q) {
  const uint32_t n = q.NumNodes();
  auto nbrs = UndirectedNeighbors(q);
  std::vector<uint8_t> chosen(n, 0);
  std::vector<QueryNodeId> order;
  order.reserve(n);

  // Start node: maximum degree (most constraints as early as possible).
  QueryNodeId best = 0;
  for (QueryNodeId v = 1; v < n; ++v) {
    if (nbrs[v].size() > nbrs[best].size()) best = v;
  }
  order.push_back(best);
  chosen[best] = 1;

  while (order.size() < n) {
    QueryNodeId next = kInvalidNode;
    // RI scoring: (1) most neighbors already in the order, (2) most
    // neighbors that are themselves adjacent to the order, (3) degree.
    std::tuple<int, int, int> best_score{-1, -1, -1};
    std::unordered_set<QueryNodeId> frontier;  // nodes adjacent to the order
    for (QueryNodeId in_order : order) {
      for (QueryNodeId w : nbrs[in_order]) {
        if (!chosen[w]) frontier.insert(w);
      }
    }
    for (QueryNodeId cand = 0; cand < n; ++cand) {
      if (chosen[cand]) continue;
      int s1 = 0, s2 = 0;
      for (QueryNodeId w : nbrs[cand]) {
        if (chosen[w]) {
          ++s1;
        } else if (frontier.count(w) > 0) {
          ++s2;
        }
      }
      if (s1 == 0 && !order.empty() && frontier.count(cand) == 0) {
        continue;  // keep the prefix connected whenever possible
      }
      std::tuple<int, int, int> score{s1, s2,
                                      static_cast<int>(nbrs[cand].size())};
      if (score > best_score) {
        best_score = score;
        next = cand;
      }
    }
    if (next == kInvalidNode) {
      for (QueryNodeId v = 0; v < n; ++v) {
        if (!chosen[v]) {
          next = v;
          break;
        }
      }
    }
    order.push_back(next);
    chosen[next] = 1;
  }
  return order;
}

std::vector<QueryNodeId> ComputeSearchOrder(const PatternQuery& q,
                                            const Rig& rig,
                                            OrderStrategy strategy,
                                            OrderStats* stats) {
  if (stats != nullptr) *stats = OrderStats();
  switch (strategy) {
    case OrderStrategy::kJO:
      if (stats != nullptr) stats->plans_considered = 1;
      return JoOrder(q, CosSizes(rig));
    case OrderStrategy::kRI:
      if (stats != nullptr) stats->plans_considered = 1;
      return RiOrder(q);
    case OrderStrategy::kBJ:
      if (q.NumNodes() > kBjMaxNodes) {
        if (stats != nullptr) stats->fell_back_to_jo = true;
        return JoOrder(q, CosSizes(rig));
      }
      return BjOrder(q, rig, stats);
  }
  return JoOrder(q, CosSizes(rig));
}

}  // namespace rigpm
