// Quickstart: build a small data graph, write a hybrid pattern query, and
// evaluate it with the GM engine.
//
//   cmake --build build && ./build/quickstart

#include <cstdio>
#include <string>

#include "engine/gm_engine.h"
#include "graph/graph_builder.h"
#include "query/pattern_parser.h"

int main() {
  using namespace rigpm;

  // --- 1. Build a data graph. Labels are small integers; here:
  //        0 = user, 1 = post, 2 = topic.
  GraphBuilder builder;
  NodeId alice = builder.AddNode(0);
  NodeId bob = builder.AddNode(0);
  NodeId post1 = builder.AddNode(1);
  NodeId post2 = builder.AddNode(1);
  NodeId post3 = builder.AddNode(1);
  NodeId databases = builder.AddNode(2);

  builder.AddEdge(alice, post1);     // alice wrote post1
  builder.AddEdge(bob, post2);       // bob wrote post2
  builder.AddEdge(bob, post3);       // bob wrote post3
  builder.AddEdge(post1, post2);     // post1 links to post2
  builder.AddEdge(post2, post3);     // post2 links to post3
  builder.AddEdge(post3, databases); // post3 is tagged 'databases'
  Graph graph = std::move(builder).Build();
  std::printf("data graph: %s\n", graph.Summary().c_str());

  // --- 2. Write a hybrid pattern query. The inline syntax uses '->' for
  //        child (direct) edges and '=>' for descendant (reachability)
  //        edges: find users whose post reaches (directly or transitively)
  //        a post that is directly tagged with a topic.
  //          (u:0)->(p:1)   user U wrote post P
  //          (p)=>(q:1)     P reaches post Q through links
  //          (q)->(t:2)     Q is tagged with topic T
  std::string error;
  auto query = ParsePattern("(u:0)->(p:1)=>(q:1)->(t:2)", &error);
  if (!query.has_value()) {
    std::fprintf(stderr, "failed to parse query: %s\n", error.c_str());
    return 1;
  }
  std::printf("query: %s\n", query->Summary().c_str());

  // --- 3. Evaluate. The engine builds the reachability index (BFL), runs
  //        double simulation, assembles the runtime index graph, and
  //        enumerates occurrences with MJoin.
  GmEngine engine(graph);
  GmResult stats;
  auto occurrences = engine.EvaluateCollect(*query, GmOptions{}, &stats);

  std::printf("found %llu occurrence(s); RIG had %llu nodes / %llu edges; "
              "matching %.3f ms, enumeration %.3f ms\n",
              static_cast<unsigned long long>(stats.num_occurrences),
              static_cast<unsigned long long>(stats.rig_nodes),
              static_cast<unsigned long long>(stats.rig_edges),
              stats.MatchingMs(), stats.PhaseMs("Enumerate"));
  for (const Occurrence& t : occurrences) {
    std::printf("  U=%u P=%u Q=%u T=%u\n", t[0], t[1], t[2], t[3]);
  }
  return 0;
}
