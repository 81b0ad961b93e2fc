#include "engine/gm_engine.h"

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "query/transitive_reduction.h"
#include "sim/prefilter.h"
#include "util/concurrency.h"

namespace rigpm {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Runs `phase` and books its wall-clock into r->phase_timings.
template <typename Fn>
void TimePhase(GmResult* r, const char* name, Fn&& phase) {
  auto t0 = Clock::now();
  phase();
  r->phase_timings.push_back({name, MsSince(t0)});
}

}  // namespace

GmEngine::GmEngine(const Graph& g) : graph_(g) {
  auto t0 = Clock::now();
  reach_ = std::make_unique<BflIndex>(g);
  reach_build_ms_ = MsSince(t0);
}

GmEngine::GmEngine(const Graph& g, std::unique_ptr<BflIndex> reach)
    : graph_(g), reach_(std::move(reach)) {}

GmResult GmEngine::Evaluate(const PatternQuery& query, const GmOptions& opts,
                            const OccurrenceSink& sink) const {
  GmResult r;
  r.phase_timings.reserve(6);
  const MatchContext ctx(graph_, *reach_);

  PatternQuery reduced;
  TimePhase(&r, "Reduce", [&] {
    reduced = opts.use_transitive_reduction ? QueryTransitiveReduction(query)
                                            : query;
    r.reduced_query_edges = reduced.NumEdges();
  });

  // Seed candidate sets: label match sets, optionally pre-filtered with one
  // forward + one backward sweep [11, 63].
  CandidateSets candidates;
  TimePhase(&r, "Prefilter", [&] {
    candidates = opts.use_prefilter ? PreFilter(ctx, reduced, opts.sim)
                                    : InitialMatchSets(graph_, reduced);
  });

  // Procedure select of Algorithm 4: the double simulation refines the
  // seeds into cos(q). It starts from the seeds themselves, which is sound
  // because every prune keeps os(q) when run from any superset of it. GM-F
  // skips it and expands the seeds.
  TimePhase(&r, "Simulate", [&] {
    if (opts.use_double_simulation) {
      candidates = ComputeDoubleSimulation(ctx, reduced, std::move(candidates),
                                           opts.sim_algorithm, opts.sim,
                                           &r.rig_stats.sim);
    }
  });

  // Procedure expand of Algorithm 4.
  std::optional<Rig> rig;
  TimePhase(&r, "BuildRig", [&] {
    rig.emplace(ExpandRig(ctx, reduced, std::move(candidates), &r.rig_stats));
    r.rig_nodes = rig->TotalNodes();
    r.rig_edges = rig->TotalEdges();
    r.rig_memory_bytes = rig->MemoryBytes();
    // Empty RIG: the answer is provably empty; skip ordering + enumeration.
    r.empty_rig_shortcut = rig->AnyEmpty();
  });
  if (r.empty_rig_shortcut) return r;

  TimePhase(&r, "Order", [&] {
    r.order_used = ComputeSearchOrder(reduced, *rig, opts.order,
                                      &r.order_stats);
  });

  TimePhase(&r, "Enumerate", [&] {
    MJoinOptions mopts;
    mopts.limit = opts.limit;
    r.num_occurrences = MJoin(reduced, *rig, r.order_used, sink, mopts,
                              &r.mjoin_stats);
    r.hit_limit = r.num_occurrences >= opts.limit;
  });
  return r;
}

std::vector<GmResult> GmEngine::EvaluateBatch(
    std::span<const PatternQuery> queries, const GmOptions& opts,
    const BatchOccurrenceSink& sink) const {
  std::vector<GmResult> results(queries.size());
  if (queries.empty()) return results;

  const uint32_t workers = ResolveWorkerCount(opts.num_threads, queries.size());
  std::atomic<size_t> next{0};
  auto run_range = [&] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < queries.size();
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      OccurrenceSink query_sink;
      if (sink) {
        query_sink = [&sink, i](const Occurrence& occ) {
          return sink(i, occ);
        };
      }
      results[i] = Evaluate(queries[i], opts, query_sink);
    }
  };

  if (workers <= 1) {
    run_range();
    return results;
  }

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (uint32_t t = 0; t < workers; ++t) threads.emplace_back(run_range);
  for (std::thread& t : threads) t.join();
  return results;
}

std::vector<Occurrence> GmEngine::EvaluateCollect(const PatternQuery& query,
                                                  const GmOptions& opts,
                                                  GmResult* result) const {
  std::vector<Occurrence> out;
  GmResult r = Evaluate(query, opts, [&out](const Occurrence& t) {
    out.push_back(t);
    return true;
  });
  if (result != nullptr) *result = std::move(r);
  return out;
}

}  // namespace rigpm
