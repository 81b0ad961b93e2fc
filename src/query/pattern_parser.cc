#include "query/pattern_parser.h"

#include <cctype>
#include <map>
#include <sstream>
#include <vector>

#include "util/numeric_flag.h"

namespace rigpm {

namespace {

// Minimal recursive-descent scanner over the pattern grammar.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::optional<PatternQuery> Run(std::string* error) {
    while (!AtEnd()) {
      if (!Clause()) {
        if (error != nullptr) *error = error_;
        return std::nullopt;
      }
      SkipSpace();
      if (AtEnd()) break;
      if (!Consume(',')) {
        if (error != nullptr) *error = "expected ',' at offset " + Where();
        return std::nullopt;
      }
    }
    if (labels_.empty()) {
      if (error != nullptr) *error = "empty pattern";
      return std::nullopt;
    }
    return PatternQuery::FromParts(labels_, edges_);
  }

 private:
  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  std::string Where() { return std::to_string(pos_); }

  bool Fail(const std::string& msg) {
    error_ = msg + " at offset " + Where();
    return false;
  }

  // node := '(' name [':' label] ')'
  bool Node(QueryNodeId* out) {
    if (!Consume('(')) return Fail("expected '('");
    SkipSpace();
    std::string name;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      name.push_back(text_[pos_++]);
    }
    if (name.empty()) return Fail("expected node name");
    std::optional<LabelId> label;
    if (Consume(':')) {
      SkipSpace();
      const size_t start = pos_;
      std::string digits;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        digits.push_back(text_[pos_++]);
      }
      if (digits.empty()) return Fail("expected numeric label");
      LabelId value = 0;
      if (!ParseUnsigned(digits, &value)) {
        pos_ = start;
        return Fail("label " + digits + " does not fit in 32 bits");
      }
      label = value;
    }
    if (!Consume(')')) return Fail("expected ')'");

    auto it = bindings_.find(name);
    if (it != bindings_.end()) {
      if (label.has_value() && labels_[it->second] != *label) {
        return Fail("conflicting label for node '" + name + "'");
      }
      *out = it->second;
      return true;
    }
    if (!label.has_value()) {
      return Fail("first use of node '" + name + "' needs a ':label'");
    }
    QueryNodeId id = static_cast<QueryNodeId>(labels_.size());
    labels_.push_back(*label);
    bindings_[name] = id;
    *out = id;
    return true;
  }

  // edge := '->' | '=>' | '=N>' | '<-' | '<='  (kind, bound, direction)
  bool Edge(EdgeKind* kind, uint32_t* max_hops, bool* reversed) {
    SkipSpace();
    *max_hops = 0;
    if (pos_ + 1 >= text_.size()) return Fail("expected edge");
    char a = text_[pos_], b = text_[pos_ + 1];
    if (a == '-' && b == '>') {
      *kind = EdgeKind::kChild;
      *reversed = false;
    } else if (a == '=' && std::isdigit(static_cast<unsigned char>(b))) {
      // Bounded descendant edge '=N>': path of at most N edges.
      size_t p = pos_ + 1;
      std::string digits;
      while (p < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[p]))) {
        digits.push_back(text_[p++]);
      }
      if (p >= text_.size() || text_[p] != '>') {
        return Fail("expected '>' after '=N'");
      }
      ++pos_;  // errors below name the offset of N
      if (!ParseUnsigned(digits, max_hops)) {
        return Fail("hop bound " + digits + " does not fit in 32 bits");
      }
      if (*max_hops == 0) return Fail("hop bound must be at least 1");
      *kind = EdgeKind::kDescendant;
      *reversed = false;
      pos_ = p + 1;
      return true;
    } else if (a == '=' && b == '>') {
      *kind = EdgeKind::kDescendant;
      *reversed = false;
    } else if (a == '<' && b == '-') {
      *kind = EdgeKind::kChild;
      *reversed = true;
    } else if (a == '<' && b == '=') {
      *kind = EdgeKind::kDescendant;
      *reversed = true;
    } else {
      return Fail("expected '->', '=>', '=N>', '<-' or '<='");
    }
    pos_ += 2;
    return true;
  }

  // clause := node (edge node)*
  bool Clause() {
    QueryNodeId current = 0;
    if (!Node(&current)) return false;
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] == ',') return true;
      EdgeKind kind;
      uint32_t max_hops = 0;
      bool reversed = false;
      if (!Edge(&kind, &max_hops, &reversed)) return false;
      QueryNodeId next = 0;
      if (!Node(&next)) return false;
      if (reversed) {
        edges_.push_back({next, current, kind, max_hops});
      } else {
        edges_.push_back({current, next, kind, max_hops});
      }
      current = next;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::string error_;
  std::vector<LabelId> labels_;
  std::vector<QueryEdge> edges_;
  std::map<std::string, QueryNodeId> bindings_;
};

}  // namespace

std::optional<PatternQuery> ParsePattern(const std::string& text,
                                         std::string* error) {
  Parser p(text);
  return p.Run(error);
}

std::string PatternToString(const PatternQuery& q) {
  std::ostringstream os;
  // Emit every node once with its label, via the first clause that uses it.
  std::vector<bool> labeled(q.NumNodes(), false);
  auto node = [&](QueryNodeId v) {
    std::ostringstream n;
    n << "(n" << v;
    if (!labeled[v]) {
      n << ':' << q.Label(v);
      labeled[v] = true;
    }
    n << ')';
    return n.str();
  };
  bool first = true;
  for (const QueryEdge& e : q.Edges()) {
    if (!first) os << ", ";
    first = false;
    os << node(e.from);
    if (e.kind == EdgeKind::kChild) {
      os << "->";
    } else if (e.max_hops > 0) {
      os << '=' << e.max_hops << '>';
    } else {
      os << "=>";
    }
    os << node(e.to);
  }
  // Isolated nodes (single-node queries).
  for (QueryNodeId v = 0; v < q.NumNodes(); ++v) {
    if (q.Degree(v) == 0) {
      if (!first) os << ", ";
      first = false;
      os << node(v);
    }
  }
  return os.str();
}

}  // namespace rigpm
