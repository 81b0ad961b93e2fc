#ifndef RIGPM_ORDER_SEARCH_ORDER_H_
#define RIGPM_ORDER_SEARCH_ORDER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "query/pattern_query.h"
#include "rig/rig.h"

namespace rigpm {

/// Search-order strategies for MJoin (Section 5.2, Table 4):
///  * kJO — greedy join ordering on RIG statistics: start at the query node
///    with the smallest cos(q); repeatedly append the connected node with
///    the smallest cos(q). Data-dependent, the paper's default.
///  * kRI — purely topological (Bonnici et al., RI): prefer nodes with the
///    most edge constraints toward the partial order, introduced as early
///    as possible; independent of the data graph.
///  * kBJ — optimal left-deep plan by dynamic programming over connected
///    subsets, minimizing estimated intermediate-result cost. Exponential
///    in |V(Q)|; falls back to kJO beyond `kBjMaxNodes` nodes.
enum class OrderStrategy : uint8_t { kJO, kRI, kBJ };

const char* OrderStrategyName(OrderStrategy s);

/// Largest query size the BJ dynamic program accepts (2^n subset DP).
constexpr uint32_t kBjMaxNodes = 20;

struct OrderStats {
  uint64_t plans_considered = 0;  // DP states expanded (BJ) / 1 otherwise
  bool fell_back_to_jo = false;   // BJ refused an oversized query
};

/// JO's greedy rule over any per-node cardinality: start at the query node
/// with the smallest `card`, then repeatedly append the neighbour of the
/// order with the smallest, ties to the lower id. kJO passes |cos(q)|; the
/// ISO baseline its filtered candidate counts, and the WCOJ engine its
/// label counts.
std::vector<QueryNodeId> JoOrder(const PatternQuery& q,
                                 std::span<const uint64_t> card);

/// kRI's rule, which reads no data: start at the query node with the most
/// neighbours, then repeatedly append the node, among those adjacent to the
/// order, with the most neighbours in the order, then the most neighbours
/// adjacent to the order, then the most neighbours. The WCOJ baseline's RM
/// variant orders by it too.
std::vector<QueryNodeId> RiOrder(const PatternQuery& q);

/// Computes a permutation of the query nodes. Every prefix of the returned
/// order induces a connected subquery (required to avoid Cartesian
/// products), provided the query itself is connected.
std::vector<QueryNodeId> ComputeSearchOrder(const PatternQuery& q,
                                            const Rig& rig,
                                            OrderStrategy strategy,
                                            OrderStats* stats = nullptr);

}  // namespace rigpm

#endif  // RIGPM_ORDER_SEARCH_ORDER_H_
