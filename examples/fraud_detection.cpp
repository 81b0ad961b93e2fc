// Money-laundering pattern search — the scenario of Fig. 1(e): individuals
// performing a pattern of direct and indirect money transfers between legal
// and illegal accounts.
//
// Pattern (hybrid):
//   Person --c--> LegalAccount ==d==> IllegalAccount --c--> Person'
//   LegalAccount --c--> Shell ==d==> IllegalAccount
//
// i.e. money leaves a person's legal account toward an illegal account both
// through an arbitrary chain of transfers AND through a shell company in one
// hop — the reinforcement that flags structuring. The example streams
// matches through a callback instead of materializing them.

#include <cstdio>
#include <random>

#include "engine/gm_engine.h"
#include "graph/graph_builder.h"

namespace {

using namespace rigpm;

constexpr LabelId kPerson = 0;
constexpr LabelId kLegalAccount = 1;
constexpr LabelId kIllegalAccount = 2;
constexpr LabelId kShellCompany = 3;

Graph MakeTransferGraph(uint32_t people, uint32_t accounts, uint64_t seed) {
  std::mt19937_64 rng(seed);
  GraphBuilder b;
  std::vector<NodeId> persons, legal, illegal, shells;
  for (uint32_t i = 0; i < people; ++i) persons.push_back(b.AddNode(kPerson));
  for (uint32_t i = 0; i < accounts; ++i) {
    legal.push_back(b.AddNode(kLegalAccount));
  }
  for (uint32_t i = 0; i < accounts / 4; ++i) {
    illegal.push_back(b.AddNode(kIllegalAccount));
  }
  for (uint32_t i = 0; i < accounts / 8; ++i) {
    shells.push_back(b.AddNode(kShellCompany));
  }

  auto pick = [&rng](const std::vector<NodeId>& v) {
    std::uniform_int_distribution<size_t> d(0, v.size() - 1);
    return v[d(rng)];
  };
  // Ownership: persons own legal accounts; some persons cash out of illegal
  // accounts.
  for (NodeId a : legal) b.AddEdge(pick(persons), a);
  for (NodeId a : illegal) b.AddEdge(a, pick(persons));
  // Transfers: legal -> legal chains, legal -> shell, shell -> illegal,
  // legal -> illegal (rare), illegal -> illegal.
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (uint32_t i = 0; i < accounts * 4; ++i) {
    double c = coin(rng);
    if (c < 0.55) {
      b.AddEdge(pick(legal), pick(legal));
    } else if (c < 0.70) {
      b.AddEdge(pick(legal), pick(shells));
    } else if (c < 0.85) {
      b.AddEdge(pick(shells), pick(illegal));
    } else if (c < 0.90) {
      b.AddEdge(pick(legal), pick(illegal));
    } else {
      b.AddEdge(pick(illegal), pick(illegal));
    }
  }
  return std::move(b).Build();
}

}  // namespace

int main() {
  Graph g = MakeTransferGraph(/*people=*/400, /*accounts=*/2000, /*seed=*/7);
  std::printf("transfer graph: %s\n", g.Summary().c_str());

  // Query nodes: 0=Person, 1=LegalAccount, 2=Shell, 3=IllegalAccount,
  // 4=Person'.
  PatternQuery q = PatternQuery::FromParts(
      {kPerson, kLegalAccount, kShellCompany, kIllegalAccount, kPerson},
      {{0, 1, EdgeKind::kChild},       // person owns the legal account
       {1, 3, EdgeKind::kDescendant},  // chained transfers to illegal acct
       {1, 2, EdgeKind::kChild},       // direct payment to a shell company
       {2, 3, EdgeKind::kDescendant},  // shell funnels onward
       {3, 4, EdgeKind::kChild}});     // someone cashes out

  GmEngine engine(g);
  GmOptions opts;
  opts.limit = 50;  // investigators triage the first few alerts

  uint64_t alerts = 0;
  GmResult stats = engine.Evaluate(q, opts, [&alerts](const Occurrence& t) {
    if (alerts < 5) {
      std::printf("  ALERT: person %u -> account %u -> shell %u => illegal "
                  "%u -> person %u\n",
                  t[0], t[1], t[2], t[3], t[4]);
    }
    ++alerts;
    return true;
  });

  std::printf("%llu suspicious flows (capped at %llu); matching %.2f ms, "
              "enumeration %.2f ms; empty-RIG shortcut: %s\n",
              static_cast<unsigned long long>(stats.num_occurrences),
              static_cast<unsigned long long>(opts.limit), stats.MatchingMs(),
              stats.PhaseMs("Enumerate"),
              stats.empty_rig_shortcut ? "yes" : "no");
  return 0;
}
