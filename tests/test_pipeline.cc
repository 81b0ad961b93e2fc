// Unit tests for GmEngine's phase timings: every evaluation books the six
// GM phases into GmResult::phase_timings, in order, under the names the
// wire and the serving benchmark match on; the empty-RIG shortcut stops
// after BuildRig.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/gm_engine.h"
#include "test_util.h"

namespace rigpm {
namespace {

using ::rigpm::testing::PaperExample;

const std::vector<std::string> kAllPhases = {
    "Reduce", "Prefilter", "Simulate", "BuildRig", "Order", "Enumerate"};

/// Reduce through BuildRig: what runs when the evaluation stops there.
std::vector<std::string> MatchingPhases() {
  return {kAllPhases.begin(), kAllPhases.begin() + 4};
}

std::vector<std::string> PhaseNames(const GmResult& r) {
  std::vector<std::string> names;
  for (const PhaseTiming& pt : r.phase_timings) names.push_back(pt.name);
  return names;
}

TEST(GmPhases, EvaluateTimesTheSixPhasesInOrder) {
  Graph g = PaperExample::MakeGraph();
  GmEngine engine(g);
  GmResult r = engine.Evaluate(PaperExample::MakeQuery());
  EXPECT_EQ(r.num_occurrences, 4u);
  EXPECT_EQ(PhaseNames(r), kAllPhases);

  double sum = 0.0;
  for (const PhaseTiming& pt : r.phase_timings) {
    EXPECT_GE(pt.ms, 0.0) << pt.name;
    EXPECT_EQ(r.PhaseMs(pt.name), pt.ms) << pt.name;
    sum += pt.ms;
  }
  EXPECT_DOUBLE_EQ(r.TotalMs(), sum);
  EXPECT_DOUBLE_EQ(r.MatchingMs(), sum - r.PhaseMs("Enumerate"));
  EXPECT_EQ(r.PhaseMs("NoSuchPhase"), 0.0);
}

TEST(GmPhases, EmptyRigShortcutStopsAfterBuildRig) {
  // No node carries label 9, so the candidate sets are empty and the
  // evaluation must stop at BuildRig without ordering or enumeration.
  Graph g = PaperExample::MakeGraph();
  GmEngine engine(g);
  PatternQuery q = PatternQuery::FromParts(
      {PaperExample::kLabelA, 9}, {{0, 1, EdgeKind::kChild}});
  GmResult r = engine.Evaluate(q);
  EXPECT_TRUE(r.empty_rig_shortcut);
  EXPECT_EQ(r.num_occurrences, 0u);
  EXPECT_EQ(PhaseNames(r), MatchingPhases());
  EXPECT_EQ(r.PhaseMs("Enumerate"), 0.0);
  EXPECT_DOUBLE_EQ(r.MatchingMs(), r.TotalMs());
  EXPECT_TRUE(r.order_used.empty());
}

}  // namespace
}  // namespace rigpm
