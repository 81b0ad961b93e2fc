#include "engine/gm_engine.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "util/concurrency.h"

namespace rigpm {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

GmEngine::GmEngine(const Graph& g, ReachKind reach) : graph_(g) {
  auto t0 = Clock::now();
  reach_ = BuildReachabilityIndex(g, reach);
  reach_build_ms_ = MsSince(t0);
  intervals_ = std::make_unique<IntervalLabels>(g, reach_->condensation());
  pipeline_ = QueryPipeline::StandardChain();
  matching_pipeline_ = QueryPipeline::MatchingChain();
}

GmEngine::GmEngine(const Graph& g, std::unique_ptr<ReachabilityIndex> reach,
                   std::unique_ptr<IntervalLabels> intervals)
    : graph_(g), reach_(std::move(reach)), intervals_(std::move(intervals)) {
  pipeline_ = QueryPipeline::StandardChain();
  matching_pipeline_ = QueryPipeline::MatchingChain();
}

GmResult GmEngine::Evaluate(EvalContext& ctx, const PatternQuery& query,
                            const GmOptions& opts,
                            const OccurrenceSink& sink) const {
  PipelineState& state = ctx.state();
  state.Reset(query, opts, sink);
  pipeline_.Run(ctx, state);
  ctx.NoteQuery(state.result);
  // Moving the result out leaves state.result empty-but-valid; the next
  // Reset() reinitializes it.
  return std::move(state.result);
}

GmResult GmEngine::Evaluate(const PatternQuery& query, const GmOptions& opts,
                            const OccurrenceSink& sink) const {
  EvalContext ctx = MakeContext();
  return Evaluate(ctx, query, opts, sink);
}

std::vector<GmResult> GmEngine::EvaluateBatch(
    std::span<const PatternQuery> queries, const GmOptions& opts,
    const BatchOccurrenceSink& sink) const {
  std::vector<GmResult> results(queries.size());
  if (queries.empty()) return results;

  const uint32_t workers = ResolveWorkerCount(opts.num_threads, queries.size());
  auto run_range = [&](EvalContext& ctx, std::atomic<size_t>& next) {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < queries.size();
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      OccurrenceSink query_sink;
      if (sink) {
        query_sink = [&sink, i](const Occurrence& occ) {
          return sink(i, occ);
        };
      }
      results[i] = Evaluate(ctx, queries[i], opts, query_sink);
    }
  };

  std::atomic<size_t> next{0};
  if (workers <= 1) {
    EvalContext ctx = MakeContext();
    run_range(ctx, next);
    return results;
  }

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (uint32_t t = 0; t < workers; ++t) {
    threads.emplace_back([&] {
      EvalContext ctx = MakeContext();
      run_range(ctx, next);
    });
  }
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

Rig GmEngine::BuildRigOnly(const PatternQuery& query, const GmOptions& opts,
                           GmResult* result) const {
  EvalContext ctx = MakeContext();
  PipelineState& state = ctx.state();
  state.Reset(query, opts, nullptr);
  matching_pipeline_.Run(ctx, state);
  if (result != nullptr) *result = std::move(state.result);
  return std::move(*state.rig);
}

}  // namespace rigpm
