#include "rig/rig.h"

#include <sstream>

namespace rigpm {

Rig::Rig(const PatternQuery& q, std::vector<Bitmap> node_sets)
    : cos_(std::move(node_sets)),
      forward_(q.NumEdges()),
      backward_(q.NumEdges()),
      edge_counts_(q.NumEdges(), 0) {}

void Rig::AddEdge(QueryEdgeId e, NodeId vp, NodeId vq) {
  forward_[e][vp].Add(vq);
  backward_[e][vq].Add(vp);
  ++edge_counts_[e];
}

const Bitmap& Rig::Forward(QueryEdgeId e, NodeId vp) const {
  auto it = forward_[e].find(vp);
  return it == forward_[e].end() ? empty_ : it->second;
}

const Bitmap& Rig::Backward(QueryEdgeId e, NodeId vq) const {
  auto it = backward_[e].find(vq);
  return it == backward_[e].end() ? empty_ : it->second;
}

uint64_t Rig::TotalNodes() const {
  uint64_t total = 0;
  for (const Bitmap& b : cos_) total += b.Cardinality();
  return total;
}

uint64_t Rig::TotalEdges() const {
  uint64_t total = 0;
  for (uint64_t c : edge_counts_) total += c;
  return total;
}

bool Rig::AnyEmpty() const {
  for (const Bitmap& b : cos_) {
    if (b.Empty()) return true;
  }
  return false;
}

size_t Rig::MemoryBytes() const {
  size_t bytes = sizeof(Rig);
  for (const Bitmap& b : cos_) bytes += b.MemoryBytes();
  for (const auto& map : forward_) {
    for (const auto& [k, b] : map) bytes += sizeof(k) + b.MemoryBytes();
  }
  for (const auto& map : backward_) {
    for (const auto& [k, b] : map) bytes += sizeof(k) + b.MemoryBytes();
  }
  return bytes;
}

std::string Rig::Summary() const {
  std::ostringstream os;
  os << "RIG nodes=" << TotalNodes() << " edges=" << TotalEdges();
  return os.str();
}

}  // namespace rigpm
