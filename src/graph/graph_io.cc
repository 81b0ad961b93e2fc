#include "graph/graph_io.h"

#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

namespace rigpm {

void WriteGraph(const Graph& g, std::ostream& out) {
  out << "t " << g.NumNodes() << ' ' << g.NumEdges() << '\n';
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    out << "v " << v << ' ' << g.Label(v) << '\n';
  }
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (NodeId w : g.OutNeighbors(v)) {
      out << "e " << v << ' ' << w << '\n';
    }
  }
}

std::optional<Graph> ReadGraph(std::istream& in, std::string* error) {
  auto fail = [error](const std::string& msg) -> std::optional<Graph> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };

  std::vector<LabelId> labels;
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::string line;
  size_t line_no = 0;
  bool have_header = false;
  uint64_t declared_nodes = 0, declared_edges = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    char tag = 0;
    ls >> tag;
    if (tag == 't') {
      if (have_header) {
        return fail("duplicate header at line " + std::to_string(line_no));
      }
      if (!(ls >> declared_nodes >> declared_edges)) {
        return fail("malformed header at line " + std::to_string(line_no));
      }
      // The counts are checked against the records at the end and reserve
      // nothing, so one header line cannot ask for any amount of memory.
      have_header = true;
    } else if (tag == 'v') {
      uint64_t id = 0, label = 0;
      if (!(ls >> id >> label)) {
        return fail("malformed node at line " + std::to_string(line_no));
      }
      if (id != labels.size()) {
        return fail("non-dense node id at line " + std::to_string(line_no));
      }
      // NumLabels() is the largest label plus one, so it must fit in 32 bits.
      if (label >= std::numeric_limits<LabelId>::max()) {
        return fail("label " + std::to_string(label) +
                    " out of range at line " + std::to_string(line_no));
      }
      labels.push_back(static_cast<LabelId>(label));
    } else if (tag == 'e') {
      uint64_t u = 0, v = 0;
      if (!(ls >> u >> v)) {
        return fail("malformed edge at line " + std::to_string(line_no));
      }
      // Endpoints must name already-declared nodes, with or without a
      // header: the header declares nothing.
      if (u >= labels.size() || v >= labels.size()) {
        return fail("edge (" + std::to_string(u) + ", " + std::to_string(v) +
                    ") references an undeclared node at line " +
                    std::to_string(line_no));
      }
      edges.emplace_back(static_cast<NodeId>(u), static_cast<NodeId>(v));
    } else {
      return fail("unknown record tag at line " + std::to_string(line_no));
    }
  }
  if (have_header && labels.size() != declared_nodes) {
    return fail("header declares " + std::to_string(declared_nodes) +
                " node(s) but " + std::to_string(labels.size()) +
                " were defined");
  }
  if (have_header && edges.size() != declared_edges) {
    return fail("header declares " + std::to_string(declared_edges) +
                " edge(s) but " + std::to_string(edges.size()) +
                " were defined");
  }
  return Graph::FromEdges(std::move(labels), std::move(edges));
}

bool WriteGraphFile(const Graph& g, const std::string& path,
                    std::string* error) {
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  WriteGraph(g, out);
  return static_cast<bool>(out);
}

std::optional<Graph> ReadGraphFile(const std::string& path,
                                   std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  return ReadGraph(in, error);
}

}  // namespace rigpm
