// Wide randomized differential sweep: the full GM pipeline against the
// brute-force oracle across many seeds, data-graph shapes, and query
// variants. This is the repository's strongest end-to-end guarantee — any
// soundness bug in simulation pruning, RIG expansion, ordering, or MJoin
// shows up here as a concrete counterexample seed.

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "engine/gm_engine.h"
#include "graph/generators.h"
#include "query/query_generator.h"
#include "test_util.h"

namespace rigpm {
namespace {

using ::rigpm::testing::BruteForceAnswer;

struct SweepCase {
  uint64_t seed;
  QueryVariant variant;
  bool dag_data;
  bool dense_query;
};

std::string SweepName(const ::testing::TestParamInfo<SweepCase>& info) {
  std::string name = "seed" + std::to_string(info.param.seed);
  name += info.param.variant == QueryVariant::kChildOnly       ? "_C"
          : info.param.variant == QueryVariant::kDescendantOnly ? "_D"
                                                                : "_H";
  name += info.param.dag_data ? "_dag" : "_cyc";
  name += info.param.dense_query ? "_dense" : "_sparse";
  return name;
}

class RandomSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(RandomSweepTest, GmMatchesBruteForce) {
  const SweepCase& p = GetParam();
  GeneratorOptions gopts{.num_nodes = 70, .num_edges = 240, .num_labels = 4,
                         .seed = p.seed};
  Graph g = p.dag_data ? GenerateRandomDag(gopts) : GeneratePowerLaw(gopts);

  RandomQueryOptions qopts;
  qopts.num_nodes = p.dense_query ? 5 : 6;
  qopts.num_edges = p.dense_query ? 9 : 6;
  qopts.num_labels = 4;
  qopts.variant = p.variant;
  qopts.seed = p.seed * 101 + 3;
  PatternQuery q = GenerateRandomQuery(qopts);

  GmEngine engine(g);
  auto tuples = engine.EvaluateCollect(q);
  std::set<Occurrence> got(tuples.begin(), tuples.end());
  EXPECT_EQ(got.size(), tuples.size()) << "duplicates emitted";
  EXPECT_EQ(got, BruteForceAnswer(g, q));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomSweepTest,
    ::testing::Values(
        SweepCase{11, QueryVariant::kHybrid, false, false},
        SweepCase{12, QueryVariant::kHybrid, false, true},
        SweepCase{13, QueryVariant::kHybrid, true, false},
        SweepCase{14, QueryVariant::kHybrid, true, true},
        SweepCase{15, QueryVariant::kChildOnly, false, false},
        SweepCase{16, QueryVariant::kChildOnly, false, true},
        SweepCase{17, QueryVariant::kChildOnly, true, true},
        SweepCase{18, QueryVariant::kDescendantOnly, false, false},
        SweepCase{19, QueryVariant::kDescendantOnly, true, false},
        SweepCase{20, QueryVariant::kDescendantOnly, false, true},
        SweepCase{21, QueryVariant::kHybrid, false, false},
        SweepCase{22, QueryVariant::kHybrid, true, false},
        SweepCase{23, QueryVariant::kChildOnly, true, false},
        SweepCase{24, QueryVariant::kDescendantOnly, true, true},
        SweepCase{25, QueryVariant::kHybrid, false, true}),
    SweepName);

// Same sweep against the dedicated engine knobs: every combination of
// sim algorithm x order strategy must produce the identical answer set.
TEST(RandomSweep, AllKnobCombinationsAgree) {
  Graph g = GeneratePowerLaw({.num_nodes = 90, .num_edges = 350,
                              .num_labels = 4, .seed = 31});
  GmEngine engine(g);
  PatternQuery q = GenerateRandomQuery({.num_nodes = 5, .num_edges = 7,
                                        .num_labels = 4,
                                        .variant = QueryVariant::kHybrid,
                                        .seed = 77});
  std::set<Occurrence> reference;
  bool first = true;
  for (SimAlgorithm sim :
       {SimAlgorithm::kBas, SimAlgorithm::kDag, SimAlgorithm::kDagMap}) {
    for (OrderStrategy order :
         {OrderStrategy::kJO, OrderStrategy::kRI, OrderStrategy::kBJ}) {
      for (ChildCheckMode check :
           {ChildCheckMode::kBinSearch, ChildCheckMode::kBitIter,
            ChildCheckMode::kBitBat}) {
        GmOptions opts;
        opts.sim_algorithm = sim;
        opts.order = order;
        opts.sim.child_check = check;
        auto tuples = engine.EvaluateCollect(q, opts);
        std::set<Occurrence> got(tuples.begin(), tuples.end());
        if (first) {
          reference = got;
          first = false;
        } else {
          ASSERT_EQ(got, reference)
              << SimAlgorithmName(sim) << '/' << OrderStrategyName(order)
              << '/' << ChildCheckModeName(check);
        }
      }
    }
  }
  EXPECT_EQ(reference, BruteForceAnswer(g, q));
}

// --- Batch/sequential equivalence sweeps. The batch API must produce
// exactly the sequential answer for every graph shape, query variant and
// worker count.

std::vector<std::pair<Graph, PatternQuery>> SweepInstances() {
  std::vector<std::pair<Graph, PatternQuery>> instances;
  for (uint64_t seed : {41u, 42u, 43u, 44u}) {
    GeneratorOptions gopts{.num_nodes = 70, .num_edges = 240, .num_labels = 4,
                           .seed = seed};
    Graph g = (seed % 2 == 0) ? GenerateRandomDag(gopts)
                              : GeneratePowerLaw(gopts);
    RandomQueryOptions qopts;
    qopts.num_nodes = 5;
    qopts.num_edges = 7;
    qopts.num_labels = 4;
    qopts.variant = (seed % 3 == 0)   ? QueryVariant::kChildOnly
                    : (seed % 3 == 1) ? QueryVariant::kDescendantOnly
                                      : QueryVariant::kHybrid;
    qopts.seed = seed * 101 + 3;
    PatternQuery q = GenerateRandomQuery(qopts);
    instances.emplace_back(std::move(g), std::move(q));
  }
  return instances;
}

TEST(RandomSweep, EvaluateBatchMatchesSequential) {
  auto instances = SweepInstances();
  // All queries of the sweep against one shared engine (first graph).
  const Graph& g = instances.front().first;
  GmEngine engine(g);
  std::vector<PatternQuery> batch;
  for (auto& [unused_g, q] : instances) batch.push_back(q);
  for (auto& [unused_g, q] : instances) batch.push_back(q);  // duplicates ok

  std::vector<uint64_t> expected;
  for (const PatternQuery& q : batch) {
    expected.push_back(engine.Evaluate(q).num_occurrences);
  }

  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    GmOptions opts;
    opts.num_threads = threads;
    std::atomic<uint64_t> sunk{0};
    auto results = engine.EvaluateBatch(
        batch, opts, [&sunk](size_t, const Occurrence&) {
          sunk.fetch_add(1, std::memory_order_relaxed);
          return true;
        });
    ASSERT_EQ(results.size(), batch.size());
    uint64_t total = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].num_occurrences, expected[i])
          << "query " << i << " threads=" << threads;
      total += results[i].num_occurrences;
    }
    EXPECT_EQ(sunk.load(), total) << "threads=" << threads;
  }
}

TEST(RandomSweep, LimitClampedUnderConcurrency) {
  // A permissive query with a large answer so every worker has work.
  Graph g = GeneratePowerLaw({.num_nodes = 80, .num_edges = 400,
                              .num_labels = 2, .seed = 51});
  GmEngine engine(g);
  PatternQuery q = GenerateRandomQuery({.num_nodes = 4, .num_edges = 4,
                                        .num_labels = 2,
                                        .variant = QueryVariant::kHybrid,
                                        .seed = 52});
  uint64_t full = engine.Evaluate(q).num_occurrences;
  ASSERT_GT(full, 50u) << "workload too selective for a limit test";

  const uint64_t limit = full / 2;
  GmOptions opts;
  opts.limit = limit;
  uint64_t sunk = 0;
  GmResult sequential = engine.Evaluate(q, opts, [&sunk](const Occurrence&) {
    ++sunk;
    return true;
  });
  EXPECT_EQ(sequential.num_occurrences, limit);
  EXPECT_TRUE(sequential.hit_limit);
  EXPECT_EQ(sunk, limit);

  // The same clamp must hold for every query of a concurrent batch.
  std::vector<PatternQuery> batch(6, q);
  opts.num_threads = 4;
  for (const GmResult& r : engine.EvaluateBatch(batch, opts)) {
    EXPECT_EQ(r.num_occurrences, limit);
    EXPECT_TRUE(r.hit_limit);
  }
}

}  // namespace
}  // namespace rigpm
