// Citation-network analysis — the scenario of Fig. 1(a) in the paper:
// "find authors who have a VLDB paper that directly or indirectly cites an
// ICDE paper by the same author".
//
// The example synthesizes a citation network (authors -> papers labeled by
// venue; papers cite papers), then evaluates the hybrid pattern
//
//      Author --c--> VLDB-paper ==d==> ICDE-paper <--c-- Author
//      (the two Author nodes are the same query node, closing the cycle)
//
// and compares GM against the join-based baseline on the same input.

#include <cstdio>
#include <random>

#include "baseline/jm_engine.h"
#include "engine/gm_engine.h"
#include "graph/graph_builder.h"

namespace {

using namespace rigpm;

constexpr LabelId kAuthor = 0;
constexpr LabelId kVldbPaper = 1;
constexpr LabelId kIcdePaper = 2;
constexpr LabelId kOtherPaper = 3;

Graph MakeCitationNetwork(uint32_t num_authors, uint32_t num_papers,
                          uint64_t seed) {
  std::mt19937_64 rng(seed);
  GraphBuilder b;
  std::vector<NodeId> authors, papers;
  for (uint32_t i = 0; i < num_authors; ++i) {
    authors.push_back(b.AddNode(kAuthor));
  }
  std::uniform_int_distribution<int> venue(0, 9);
  for (uint32_t i = 0; i < num_papers; ++i) {
    int v = venue(rng);
    LabelId label = v < 2 ? kVldbPaper : (v < 4 ? kIcdePaper : kOtherPaper);
    papers.push_back(b.AddNode(label));
  }
  // Authorship: every paper has 1-3 authors.
  std::uniform_int_distribution<uint32_t> author_pick(0, num_authors - 1);
  std::uniform_int_distribution<int> nauth(1, 3);
  for (NodeId p : papers) {
    int k = nauth(rng);
    for (int i = 0; i < k; ++i) b.AddEdge(authors[author_pick(rng)], p);
  }
  // Citations: papers cite earlier papers (acyclic), ~4 each.
  std::uniform_int_distribution<int> ncite(1, 6);
  for (uint32_t i = 1; i < num_papers; ++i) {
    int k = ncite(rng);
    std::uniform_int_distribution<uint32_t> cite_pick(0, i - 1);
    for (int c = 0; c < k; ++c) b.AddEdge(papers[i], papers[cite_pick(rng)]);
  }
  return std::move(b).Build();
}

}  // namespace

int main() {
  Graph g = MakeCitationNetwork(/*num_authors=*/300, /*num_papers=*/3000,
                                /*seed=*/2023);
  std::printf("citation network: %s\n", g.Summary().c_str());

  // Query node ids: 0 = Author, 1 = VLDB paper, 2 = ICDE paper.
  PatternQuery q = PatternQuery::FromParts(
      {kAuthor, kVldbPaper, kIcdePaper},
      {{0, 1, EdgeKind::kChild},        // author wrote the VLDB paper
       {1, 2, EdgeKind::kDescendant},   // which (transitively) cites
       {0, 2, EdgeKind::kChild}});      // an ICDE paper by the same author

  GmEngine engine(g);
  GmResult stats;
  auto results = engine.EvaluateCollect(q, GmOptions{}, &stats);
  std::printf(
      "GM: %llu matches in %.2f ms (matching %.2f ms + enumeration %.2f ms); "
      "RIG %llu nodes / %llu edges\n",
      static_cast<unsigned long long>(stats.num_occurrences), stats.TotalMs(),
      stats.MatchingMs(), stats.PhaseMs("Enumerate"),
      static_cast<unsigned long long>(stats.rig_nodes),
      static_cast<unsigned long long>(stats.rig_edges));

  for (size_t i = 0; i < results.size() && i < 5; ++i) {
    std::printf("  author %u: VLDB paper %u transitively cites their ICDE "
                "paper %u\n",
                results[i][0], results[i][1], results[i][2]);
  }

  // Same query through the join-based baseline, for comparison.
  auto reach = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *reach);
  BaselineResult jm = JmEvaluate(ctx, q);
  std::printf("JM: %llu matches in %.2f ms (peak intermediate %llu tuples)\n",
              static_cast<unsigned long long>(jm.num_occurrences),
              jm.TotalMs(),
              static_cast<unsigned long long>(
                  jm.Counter("peak_intermediate")));
  if (jm.num_occurrences != stats.num_occurrences) {
    std::fprintf(stderr, "engines disagree!\n");
    return 1;
  }
  return 0;
}
