#ifndef RIGPM_QUERY_PATTERN_PARSER_H_
#define RIGPM_QUERY_PATTERN_PARSER_H_

#include <optional>
#include <string>

#include "query/pattern_query.h"

namespace rigpm {

/// A compact, Cypher-flavoured surface syntax for hybrid patterns, for
/// interactive use (CLI, examples). Grammar:
///
///   pattern  := clause (',' clause)*
///   clause   := node (edge node)*
///   node     := '(' name [':' label] ')'
///   edge     := '->'            child (direct) edge
///            |  '=>'            descendant (reachability) edge
///            |  '=' N '>'       descendant edge along a path of at most N
///                               edges (N >= 1)
///            |  '<-' | '<='     child / descendant, right-to-left
///
/// `name` binds a query node (re-using a name refers to the same node);
/// `label` is a non-negative integer label id and must be given on the
/// first occurrence of each name. Both `label` and N must fit in 32 bits
/// (at most 4294967295); a number that does not is a parse error naming
/// its offset, never a silently wrapped value.
///
/// An edge may join a name to itself, a loop: `(x)->(x)` matches a node
/// with an edge to itself, `(x)=>(x)` a node on a cycle, and `(x)=N>(x)` a
/// node on a cycle of at most N edges.
///
/// Example — the paper's running example query (Fig. 2a):
///   (a:0)->(b:1), (a)->(c:2), (b)=>(c)
std::optional<PatternQuery> ParsePattern(const std::string& text,
                                         std::string* error = nullptr);

/// Renders a query back into the surface syntax (one clause per edge).
std::string PatternToString(const PatternQuery& q);

}  // namespace rigpm

#endif  // RIGPM_QUERY_PATTERN_PARSER_H_
