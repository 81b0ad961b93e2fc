#ifndef RIGPM_QUERY_QUERY_TEMPLATES_H_
#define RIGPM_QUERY_QUERY_TEMPLATES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/pattern_query.h"

namespace rigpm {

/// C / H / D query variants of Section 7.1: child-edge-only, hybrid (each
/// edge child or descendant), and descendant-edge-only.
enum class QueryVariant : uint8_t { kChildOnly, kHybrid, kDescendantOnly };

const char* QueryVariantName(QueryVariant v);

/// Structural classes of the designed query sets (Section 7.1): acyclic,
/// cyclic (>=1 undirected cycle), clique (complete undirected graph), and
/// combo (> 2 undirected cycles).
enum class PatternClass : uint8_t { kAcyclic, kCyclic, kClique, kCombo };

const char* PatternClassName(PatternClass c);

/// One of the twenty query templates of Fig. 7. `hybrid_kinds[i]` is the
/// edge type edge i takes in the H variant (the published figure fixes these
/// per template; the C and D variants override all edges).
struct QueryTemplate {
  std::string name;  // "HQ0" .. "HQ19"
  PatternClass cls = PatternClass::kAcyclic;
  uint32_t num_nodes = 0;
  std::vector<std::pair<QueryNodeId, QueryNodeId>> edges;
  std::vector<EdgeKind> hybrid_kinds;
};

/// The 20 templates HQ0..HQ19 (shapes reconstructed from the paper's class
/// annotations: HQ0-HQ5 acyclic with HQ2 a tree, HQ6-HQ9+HQ17 cyclic,
/// HQ11/HQ12/HQ19 cliques of 4/5/7 nodes, the rest combo patterns).
const std::vector<QueryTemplate>& HQueryTemplates();

/// Template by name ("HQ7"); aborts on unknown names.
const QueryTemplate& TemplateByName(const std::string& name);

/// Instantiates a template: query node i takes `labels[i]` (one label per
/// template node); edge kinds follow the variant.
PatternQuery InstantiateTemplate(const QueryTemplate& tpl, QueryVariant variant,
                                 std::vector<LabelId> labels);

}  // namespace rigpm

#endif  // RIGPM_QUERY_QUERY_TEMPLATES_H_
