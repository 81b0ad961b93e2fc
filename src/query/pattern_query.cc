#include "query/pattern_query.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <numeric>
#include <set>
#include <sstream>

#include "util/serde.h"

namespace rigpm {

namespace {

void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), p, p + sizeof(v));
}

}  // namespace

PatternQuery PatternQuery::FromParts(std::vector<LabelId> labels,
                                     std::vector<QueryEdge> edges) {
  PatternQuery q;
  q.labels_ = std::move(labels);
  std::sort(edges.begin(), edges.end(),
            [](const QueryEdge& a, const QueryEdge& b) {
              return std::tie(a.from, a.to, a.kind, a.max_hops) <
                     std::tie(b.from, b.to, b.kind, b.max_hops);
            });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  q.edges_ = std::move(edges);
  q.num_child_edges_ = 0;
  for (const QueryEdge& e : q.edges_) {
    assert(e.from < q.labels_.size() && e.to < q.labels_.size());
    if (e.kind == EdgeKind::kChild) ++q.num_child_edges_;
  }
  q.BuildIncidence();
  return q;
}

void PatternQuery::BuildIncidence() {
  const uint32_t n = NumNodes();
  out_offsets_.assign(n + 1, 0);
  in_offsets_.assign(n + 1, 0);
  for (const QueryEdge& e : edges_) {
    ++out_offsets_[e.from + 1];
    ++in_offsets_[e.to + 1];
  }
  for (uint32_t i = 0; i < n; ++i) {
    out_offsets_[i + 1] += out_offsets_[i];
    in_offsets_[i + 1] += in_offsets_[i];
  }
  out_edges_.resize(edges_.size());
  in_edges_.resize(edges_.size());
  std::vector<uint32_t> opos(out_offsets_.begin(), out_offsets_.end() - 1);
  std::vector<uint32_t> ipos(in_offsets_.begin(), in_offsets_.end() - 1);
  for (QueryEdgeId i = 0; i < edges_.size(); ++i) {
    out_edges_[opos[edges_[i].from]++] = i;
    in_edges_[ipos[edges_[i].to]++] = i;
  }
}

bool PatternQuery::HasEdgeBetween(QueryNodeId p, QueryNodeId q) const {
  for (QueryEdgeId e : OutEdges(p)) {
    if (edges_[e].to == q) return true;
  }
  return false;
}

bool PatternQuery::IsConnected() const {
  const uint32_t n = NumNodes();
  if (n == 0) return false;
  std::vector<uint8_t> seen(n, 0);
  std::vector<QueryNodeId> stack = {0};
  seen[0] = 1;
  uint32_t count = 1;
  while (!stack.empty()) {
    QueryNodeId q = stack.back();
    stack.pop_back();
    auto visit = [&](QueryNodeId w) {
      if (!seen[w]) {
        seen[w] = 1;
        ++count;
        stack.push_back(w);
      }
    };
    for (QueryEdgeId e : OutEdges(q)) visit(edges_[e].to);
    for (QueryEdgeId e : InEdges(q)) visit(edges_[e].from);
  }
  return count == n;
}

bool PatternQuery::IsDag(std::vector<QueryNodeId>* topo_order) const {
  const uint32_t n = NumNodes();
  std::vector<uint32_t> indeg(n, 0);
  for (const QueryEdge& e : edges_) ++indeg[e.to];
  std::vector<QueryNodeId> order;
  order.reserve(n);
  for (QueryNodeId q = 0; q < n; ++q) {
    if (indeg[q] == 0) order.push_back(q);
  }
  for (size_t head = 0; head < order.size(); ++head) {
    QueryNodeId q = order[head];
    for (QueryEdgeId e : OutEdges(q)) {
      if (--indeg[edges_[e].to] == 0) order.push_back(edges_[e].to);
    }
  }
  if (order.size() != n) return false;
  if (topo_order != nullptr) *topo_order = std::move(order);
  return true;
}

bool PatternQuery::IsUndirectedAcyclic() const {
  if (!IsConnected()) return false;
  std::set<std::pair<QueryNodeId, QueryNodeId>> undirected;
  for (const QueryEdge& e : edges_) {
    undirected.insert({std::min(e.from, e.to), std::max(e.from, e.to)});
  }
  return undirected.size() == NumNodes() - 1;
}

std::vector<uint8_t> PatternQuery::CanonicalEncoding() const {
  const uint32_t n = NumNodes();
  // Child edges ignore max_hops (pattern_query.h); normalize it out so two
  // declarations differing only in a meaningless bound still collide.
  auto hops_of = [&](const QueryEdge& e) {
    return e.kind == EdgeKind::kChild ? 0u : e.max_hops;
  };

  // WL color refinement seeded from the labels: a node's next color hashes
  // its current color together with the sorted multiset of (direction,
  // kind, bound, neighbor color) over its incident edges. Isomorphic
  // patterns refine to identical color multisets, so sorting nodes by
  // refined color is already order-insensitive; only nodes refinement
  // cannot tell apart need the permutation tie-break below.
  std::vector<uint64_t> color(n);
  for (uint32_t q = 0; q < n; ++q) {
    uint64_t label = labels_[q];
    color[q] = Checksum64(&label, sizeof(label), 0x243f6a8885a308d3ull);
  }
  auto count_classes = [&] {
    std::vector<uint64_t> sorted(color);
    std::sort(sorted.begin(), sorted.end());
    return static_cast<size_t>(
        std::unique(sorted.begin(), sorted.end()) - sorted.begin());
  };
  size_t classes = count_classes();
  std::vector<uint64_t> next(n);
  std::vector<uint64_t> sig;
  for (uint32_t round = 0; round + 1 < n && classes < n; ++round) {
    for (uint32_t q = 0; q < n; ++q) {
      sig.clear();
      auto add = [&](uint64_t dir, const QueryEdge& edge, uint64_t other) {
        uint64_t fields[4] = {dir, static_cast<uint64_t>(edge.kind),
                              hops_of(edge), other};
        sig.push_back(Checksum64(fields, sizeof(fields)));
      };
      for (QueryEdgeId e : OutEdges(q)) add(0, edges_[e], color[edges_[e].to]);
      for (QueryEdgeId e : InEdges(q)) add(1, edges_[e], color[edges_[e].from]);
      std::sort(sig.begin(), sig.end());
      sig.push_back(color[q]);
      next[q] = Checksum64(sig.data(), sig.size() * sizeof(uint64_t),
                           0x13198a2e03707344ull);
    }
    color.swap(next);
    size_t refined = count_classes();
    if (refined == classes) break;  // stable partition
    classes = refined;
  }

  // Canonical position order: by refined color, construction index as the
  // (only-in-fallback) tie-break.
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return color[a] != color[b] ? color[a] < color[b] : a < b;
  });

  auto encode = [&](const std::vector<uint32_t>& ord) {
    std::vector<uint32_t> inv(n);
    for (uint32_t i = 0; i < n; ++i) inv[ord[i]] = i;
    std::vector<uint8_t> out;
    out.reserve(sizeof(uint32_t) * (2 + n + 4 * edges_.size()));
    AppendU32(&out, n);
    for (uint32_t i = 0; i < n; ++i) AppendU32(&out, labels_[ord[i]]);
    std::vector<std::array<uint32_t, 4>> mapped;
    mapped.reserve(edges_.size());
    for (const QueryEdge& e : edges_) {
      mapped.push_back({inv[e.from], inv[e.to],
                        static_cast<uint32_t>(e.kind), hops_of(e)});
    }
    std::sort(mapped.begin(), mapped.end());
    AppendU32(&out, static_cast<uint32_t>(mapped.size()));
    for (const auto& e : mapped) {
      for (uint32_t field : e) AppendU32(&out, field);
    }
    return out;
  };

  // Color classes refinement could not split: try every within-class
  // ordering (bounded) and keep the lexicographically smallest encoding —
  // any isomorphism maps refined classes onto each other, so the minimum
  // over class-respecting orders is isomorphism-invariant.
  struct TieGroup {
    size_t begin;
    size_t end;
  };
  std::vector<TieGroup> groups;
  uint64_t perms = 1;
  bool bounded = true;
  for (size_t i = 0; i < order.size();) {
    size_t j = i + 1;
    while (j < order.size() && color[order[j]] == color[order[i]]) ++j;
    if (j - i > 1) {
      groups.push_back({i, j});
      for (size_t k = 2; k <= j - i && bounded; ++k) {
        perms *= k;
        if (perms > kMaxCanonicalPerms) bounded = false;
      }
    }
    i = j;
  }
  if (groups.empty() || !bounded) return encode(order);

  std::vector<uint8_t> best = encode(order);
  while (true) {
    // Odometer over the tie groups, each stepped by next_permutation (the
    // slices start sorted ascending, so every combination is visited once).
    size_t g = 0;
    for (; g < groups.size(); ++g) {
      auto begin = order.begin() + static_cast<ptrdiff_t>(groups[g].begin);
      auto end = order.begin() + static_cast<ptrdiff_t>(groups[g].end);
      if (std::next_permutation(begin, end)) break;
    }
    if (g == groups.size()) break;  // every combination seen
    std::vector<uint8_t> candidate = encode(order);
    if (candidate < best) best = std::move(candidate);
  }
  return best;
}

std::string PatternQuery::Summary() const {
  std::ostringstream os;
  os << "nodes=" << NumNodes() << " edges=" << NumEdges() << " (child "
     << NumChildEdges() << ", desc " << NumDescendantEdges() << ")";
  return os.str();
}

}  // namespace rigpm
