#include "query/query_templates.h"

#include <cassert>
#include <cstdlib>

namespace rigpm {

const char* QueryVariantName(QueryVariant v) {
  switch (v) {
    case QueryVariant::kChildOnly:
      return "C";
    case QueryVariant::kHybrid:
      return "H";
    case QueryVariant::kDescendantOnly:
      return "D";
  }
  return "?";
}

const char* PatternClassName(PatternClass c) {
  switch (c) {
    case PatternClass::kAcyclic:
      return "Acyc";
    case PatternClass::kCyclic:
      return "Cyc";
    case PatternClass::kClique:
      return "Clique";
    case PatternClass::kCombo:
      return "Combo";
  }
  return "?";
}

namespace {

// Deterministic "arbitrary" 50/50 child/descendant assignment for hybrid
// templates: a fixed multiplicative hash of the edge index. The figure in
// the paper fixes the assignment per template; any fixed assignment
// preserves the experiment's structure.
EdgeKind HybridKind(size_t edge_index) {
  uint32_t h = static_cast<uint32_t>(edge_index) * 2654435761u;
  return ((h >> 16) & 1) ? EdgeKind::kDescendant : EdgeKind::kChild;
}

QueryTemplate MakeTemplate(
    std::string name, PatternClass cls, uint32_t num_nodes,
    std::vector<std::pair<QueryNodeId, QueryNodeId>> edges) {
  QueryTemplate t;
  t.name = std::move(name);
  t.cls = cls;
  t.num_nodes = num_nodes;
  t.hybrid_kinds.reserve(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    t.hybrid_kinds.push_back(HybridKind(i));
  }
  t.edges = std::move(edges);
  return t;
}

// Acyclic orientation of the complete graph on n nodes: all (i, j), i < j.
QueryTemplate MakeClique(std::string name, uint32_t n) {
  std::vector<std::pair<QueryNodeId, QueryNodeId>> edges;
  for (QueryNodeId i = 0; i < n; ++i) {
    for (QueryNodeId j = i + 1; j < n; ++j) edges.emplace_back(i, j);
  }
  return MakeTemplate(std::move(name), PatternClass::kClique, n,
                      std::move(edges));
}

std::vector<QueryTemplate> BuildTemplates() {
  using P = PatternClass;
  std::vector<QueryTemplate> t;
  t.reserve(20);

  // --- Acyclic patterns (undirected trees). HQ2 is the tree pattern the
  // paper singles out in Fig. 10.
  t.push_back(MakeTemplate("HQ0", P::kAcyclic, 4, {{0, 1}, {1, 2}, {0, 3}}));
  t.push_back(
      MakeTemplate("HQ1", P::kAcyclic, 5, {{0, 1}, {0, 2}, {1, 3}, {1, 4}}));
  t.push_back(MakeTemplate("HQ2", P::kAcyclic, 6,
                           {{0, 1}, {0, 2}, {2, 3}, {2, 4}, {4, 5}}));
  t.push_back(MakeTemplate(
      "HQ3", P::kAcyclic, 7,
      {{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}, {2, 6}}));
  t.push_back(MakeTemplate("HQ4", P::kAcyclic, 6,
                           {{0, 1}, {0, 2}, {0, 3}, {3, 4}, {4, 5}}));
  t.push_back(MakeTemplate(
      "HQ5", P::kAcyclic, 8,
      {{0, 1}, {1, 2}, {2, 3}, {1, 4}, {4, 5}, {0, 6}, {6, 7}}));

  // --- Cyclic patterns (one or two undirected cycles).
  t.push_back(
      MakeTemplate("HQ6", P::kCyclic, 4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}));
  t.push_back(MakeTemplate("HQ7", P::kCyclic, 5,
                           {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}}));
  t.push_back(MakeTemplate("HQ8", P::kCyclic, 3, {{0, 1}, {0, 2}, {1, 2}}));
  t.push_back(MakeTemplate("HQ9", P::kCyclic, 5,
                           {{0, 1}, {1, 2}, {0, 3}, {3, 2}, {2, 4}}));
  // --- Combo patterns (more than two undirected cycles).
  t.push_back(MakeTemplate(
      "HQ10", P::kCombo, 5,
      {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {2, 4}}));
  // --- Cliques.
  t.push_back(MakeClique("HQ11", 4));
  t.push_back(MakeClique("HQ12", 5));
  // --- More combo patterns.
  t.push_back(MakeTemplate("HQ13", P::kCombo, 6,
                           {{0, 1},
                            {0, 2},
                            {1, 2},
                            {1, 3},
                            {2, 4},
                            {3, 4},
                            {3, 5},
                            {4, 5},
                            {0, 3}}));
  t.push_back(MakeTemplate("HQ14", P::kCombo, 8,
                           {{0, 1},
                            {0, 2},
                            {1, 3},
                            {2, 3},
                            {1, 2},
                            {3, 4},
                            {3, 5},
                            {4, 5},
                            {4, 6},
                            {5, 6},
                            {6, 7},
                            {2, 7}}));
  t.push_back(MakeTemplate(
      "HQ15", P::kCombo, 6,
      {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4}, {4, 5}, {1, 5}}));
  t.push_back(MakeTemplate("HQ16", P::kCombo, 7,
                           {{0, 1},
                            {0, 2},
                            {1, 2},
                            {1, 3},
                            {2, 4},
                            {3, 4},
                            {4, 5},
                            {3, 5},
                            {5, 6},
                            {0, 6}}));
  // --- A larger cyclic pattern the figures group with the cyclic class.
  t.push_back(MakeTemplate(
      "HQ17", P::kCyclic, 6,
      {{0, 1}, {1, 2}, {0, 3}, {3, 2}, {2, 4}, {2, 5}}));
  // --- Heaviest combo pattern (the one JM runs out of memory on).
  t.push_back(MakeTemplate("HQ18", P::kCombo, 7,
                           {{0, 1},
                            {0, 2},
                            {1, 2},
                            {1, 3},
                            {2, 3},
                            {2, 4},
                            {3, 4},
                            {4, 5},
                            {3, 5},
                            {5, 6},
                            {4, 6}}));
  // --- 7-clique.
  t.push_back(MakeClique("HQ19", 7));
  return t;
}

}  // namespace

const std::vector<QueryTemplate>& HQueryTemplates() {
  static const std::vector<QueryTemplate>& templates =
      *new std::vector<QueryTemplate>(BuildTemplates());
  return templates;
}

const QueryTemplate& TemplateByName(const std::string& name) {
  for (const QueryTemplate& t : HQueryTemplates()) {
    if (t.name == name) return t;
  }
  std::abort();  // unknown template name is a programming error
}

PatternQuery InstantiateTemplate(const QueryTemplate& tpl, QueryVariant variant,
                                 std::vector<LabelId> labels) {
  assert(labels.size() == tpl.num_nodes);
  std::vector<QueryEdge> edges;
  edges.reserve(tpl.edges.size());
  for (size_t i = 0; i < tpl.edges.size(); ++i) {
    EdgeKind kind = EdgeKind::kChild;
    switch (variant) {
      case QueryVariant::kChildOnly:
        kind = EdgeKind::kChild;
        break;
      case QueryVariant::kDescendantOnly:
        kind = EdgeKind::kDescendant;
        break;
      case QueryVariant::kHybrid:
        kind = tpl.hybrid_kinds[i];
        break;
    }
    edges.push_back({tpl.edges[i].first, tpl.edges[i].second, kind});
  }
  return PatternQuery::FromParts(std::move(labels), std::move(edges));
}

}  // namespace rigpm
