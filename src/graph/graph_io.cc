#include "graph/graph_io.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

namespace rigpm {

namespace {

// Labels below this load whatever the node count, so a small hand-written
// graph may use sparse label ids.
constexpr uint64_t kMinLabelBound = 65536;

}  // namespace

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
  // The largest label and the line that first names it: the label index
  // takes about 40 bytes per label id up to it, so it is bounded by the
  // node count, which is known only at the end.
  uint64_t max_label = 0;
  size_t max_label_line = 0;
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
      if (label > max_label) {
        max_label = label;
        max_label_line = line_no;
      }
      labels.push_back(static_cast<LabelId>(label));  // checked below
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
  if (max_label >= std::max<uint64_t>(labels.size(), kMinLabelBound)) {
    return fail("label " + std::to_string(max_label) +
                " out of range at line " + std::to_string(max_label_line));
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
