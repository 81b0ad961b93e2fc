#ifndef RIGPM_GRAPH_GRAPH_IO_H_
#define RIGPM_GRAPH_GRAPH_IO_H_

#include <iosfwd>
#include <optional>
#include <string>

#include "graph/graph.h"

namespace rigpm {

/// Text serialization of data graphs.
///
/// Format (one record per line, '#' starts a comment):
///   t <num_nodes> <num_edges>     -- header (optional but recommended)
///   v <node_id> <label_id>        -- node declaration
///   e <src_id> <dst_id>           -- edge declaration
///
/// This is the same shape as the SNAP-derived files used by subgraph-matching
/// papers, so real datasets can be dropped in when available.
///
/// The reader validates its input: node ids must be dense and declared
/// before any edge references them (with or without a `t` header), a label
/// must be below the larger of the node count and 65536, and a header's
/// node/edge counts must match the number of `v`/`e` records. Violations are
/// reported through the `error` out-parameter. The label rule bounds the
/// label index, which costs about 40 bytes per label id up to the largest
/// (graph/graph.h), by the node count; the 65536 floor keeps small graphs
/// with sparse label ids loading.
///
/// For restart-speed-critical paths prefer the binary snapshot format
/// (storage/snapshot.h), which skips parsing entirely.

/// Writes `g` to `out` in the text format above.
void WriteGraph(const Graph& g, std::ostream& out);

/// Parses a graph from `in`. Returns std::nullopt (and fills *error when
/// non-null) on malformed input.
std::optional<Graph> ReadGraph(std::istream& in, std::string* error = nullptr);

/// File convenience wrappers.
bool WriteGraphFile(const Graph& g, const std::string& path,
                    std::string* error = nullptr);
std::optional<Graph> ReadGraphFile(const std::string& path,
                                   std::string* error = nullptr);

}  // namespace rigpm

#endif  // RIGPM_GRAPH_GRAPH_IO_H_
