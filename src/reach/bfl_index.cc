#include "reach/bfl_index.h"

#include <algorithm>

namespace rigpm {

namespace {

// SplitMix64 finalizer: cheap, well-distributed component hash.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

BflIndex::BflIndex(const Graph& g, uint32_t bits, uint64_t seed)
    : cond_(g), intervals_(cond_) {
  const uint32_t nc = cond_.NumComponents();
  words_ = std::max<uint32_t>(1, (bits + 63) / 64);
  const uint32_t total_bits = words_ * 64;

  // Each component's hash bit position, needed only while the labels are
  // built.
  std::vector<uint32_t> hash(nc);
  for (uint32_t c = 0; c < nc; ++c) {
    hash[c] = static_cast<uint32_t>(Mix(seed ^ c) % total_bits);
  }

  // L_out: reverse topological merge (component ids are topological, so a
  // plain descending scan visits every successor first). Each set contains
  // the component's own hash, making the subset test a necessary condition
  // for reachability including the endpoints.
  std::vector<uint64_t>& l_out = l_out_.Mutable();
  l_out.assign(static_cast<size_t>(nc) * words_, 0);
  for (uint32_t c = nc; c-- > 0;) {
    uint64_t* out = &l_out[static_cast<size_t>(c) * words_];
    out[hash[c] >> 6] |= uint64_t{1} << (hash[c] & 63);
    for (uint32_t d : cond_.Successors(c)) {
      const uint64_t* child = &l_out[static_cast<size_t>(d) * words_];
      for (uint32_t w = 0; w < words_; ++w) out[w] |= child[w];
    }
  }

  // L_in: forward topological merge. An ascending scan reaches c after
  // every predecessor has pushed its set into c's, so c's set is complete
  // when c pushes it on to its successors.
  std::vector<uint64_t>& l_in = l_in_.Mutable();
  l_in.assign(static_cast<size_t>(nc) * words_, 0);
  for (uint32_t c = 0; c < nc; ++c) {
    uint64_t* in = &l_in[static_cast<size_t>(c) * words_];
    in[hash[c] >> 6] |= uint64_t{1} << (hash[c] & 63);
    for (uint32_t d : cond_.Successors(c)) {
      uint64_t* child = &l_in[static_cast<size_t>(d) * words_];
      for (uint32_t w = 0; w < words_; ++w) child[w] |= in[w];
    }
  }

  visited_epoch_.assign(nc, 0);
}

bool BflIndex::OutSubset(uint32_t sub, uint32_t super) const {
  const uint64_t* a = &l_out_[static_cast<size_t>(sub) * words_];
  const uint64_t* b = &l_out_[static_cast<size_t>(super) * words_];
  for (uint32_t w = 0; w < words_; ++w) {
    if (a[w] & ~b[w]) return false;
  }
  return true;
}

bool BflIndex::InSubset(uint32_t sub, uint32_t super) const {
  const uint64_t* a = &l_in_[static_cast<size_t>(sub) * words_];
  const uint64_t* b = &l_in_[static_cast<size_t>(super) * words_];
  for (uint32_t w = 0; w < words_; ++w) {
    if (a[w] & ~b[w]) return false;
  }
  return true;
}

bool BflIndex::DecidedByCuts(NodeId u, NodeId v, bool* result) const {
  uint32_t cu = cond_.Component(u);
  uint32_t cv = cond_.Component(v);
  if (cu == cv) {
    *result = cond_.IsCyclic(cu);
    return true;
  }
  if (cu > cv) {  // topological order: only smaller ids can reach larger
    *result = false;
    return true;
  }
  if (intervals_.CompBegin(cu) < intervals_.CompBegin(cv) &&
      intervals_.CompEnd(cv) <= intervals_.CompEnd(cu)) {
    *result = true;  // positive interval cut: DFS-subtree containment
    return true;
  }
  if (intervals_.CompEnd(cu) < intervals_.CompBegin(cv)) {
    *result = false;  // negative interval cut
    return true;
  }
  if (!OutSubset(cv, cu) || !InSubset(cu, cv)) {
    *result = false;  // Bloom cut: u's out-label must cover v's, etc.
    return true;
  }
  return false;
}

bool BflIndex::Reaches(NodeId u, NodeId v) const {
  bool result = false;
  if (DecidedByCuts(u, v, &result)) return result;
  return CompReaches(cond_.Component(u), cond_.Component(v));
}

bool BflIndex::CompReaches(uint32_t cu, uint32_t cv) const {
  // Guided DFS with label pruning. Exactness: the pruning conditions are all
  // necessary for reaching cv, so skipping a pruned branch never loses a
  // true path.
  std::lock_guard<std::mutex> lock(scratch_mu_);
  ++epoch_;
  stack_.clear();
  stack_.push_back(cu);
  visited_epoch_[cu] = epoch_;
  const uint32_t target_begin = intervals_.CompBegin(cv);
  const uint32_t target_end = intervals_.CompEnd(cv);
  while (!stack_.empty()) {
    uint32_t c = stack_.back();
    stack_.pop_back();
    for (uint32_t d : cond_.Successors(c)) {
      if (d == cv) return true;
      if (d > cv) continue;                     // topological prune
      if (visited_epoch_[d] == epoch_) continue;
      visited_epoch_[d] = epoch_;
      if (intervals_.CompEnd(d) < target_begin) continue;  // negative cut
      if (intervals_.CompBegin(d) < target_begin &&
          target_end <= intervals_.CompEnd(d)) {
        return true;  // positive cut: d's DFS subtree contains cv
      }
      if (!OutSubset(cv, d)) continue;          // Bloom cut
      stack_.push_back(d);
    }
  }
  return false;
}

void BflIndex::Serialize(ByteSink& sink) const {
  cond_.Serialize(sink);
  intervals_.Serialize(sink);
  sink.WriteU32(words_);
  sink.WriteSpan<uint64_t>(l_out_);
  sink.WriteSpan<uint64_t>(l_in_);
}

std::unique_ptr<BflIndex> BflIndex::Deserialize(ByteSource& src) {
  Condensation cond = Condensation::Deserialize(src);
  IntervalLabels intervals = IntervalLabels::Deserialize(src);
  if (!src.ok()) return nullptr;
  std::unique_ptr<BflIndex> index(
      new BflIndex(std::move(cond), std::move(intervals)));
  index->storage_ = src.storage();  // keeps a zero-copy mapping alive
  index->words_ = src.ReadU32();
  src.ReadSpan(&index->l_out_);
  src.ReadSpan(&index->l_in_);
  if (!src.ok()) return nullptr;
  const uint32_t nc = index->cond_.NumComponents();
  const size_t label_words = static_cast<size_t>(nc) * index->words_;
  // The interval labels must cover exactly this condensation: every query
  // indexes them by component id, so a size mismatch (corrupt or crafted
  // but checksum-valid file) would read out of bounds at query time.
  if (index->words_ == 0 || index->l_out_.size() != label_words ||
      index->l_in_.size() != label_words ||
      index->intervals_.NumComponents() != nc) {
    src.Fail("BFL snapshot structure is inconsistent");
    return nullptr;
  }
  index->visited_epoch_.assign(nc, 0);
  return index;
}

size_t BflIndex::MemoryBytes() const {
  // Owned heap only: borrowed label arrays live in the shared snapshot
  // mapping and are accounted there.
  return l_out_.OwnedHeapBytes() + l_in_.OwnedHeapBytes() +
         visited_epoch_.capacity() * sizeof(uint32_t);
}

}  // namespace rigpm
