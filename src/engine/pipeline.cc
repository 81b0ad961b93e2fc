#include "engine/pipeline.h"

#include <chrono>
#include <utility>

#include "engine/eval_context.h"
#include "order/search_order.h"
#include "query/transitive_reduction.h"
#include "rig/rig_builder.h"
#include "sim/prefilter.h"

namespace rigpm {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

RigBuildOptions RigOptionsFrom(const GmOptions& opts) {
  RigBuildOptions rig_opts;
  rig_opts.sim_algorithm = opts.sim_algorithm;
  rig_opts.sim = opts.sim;
  rig_opts.skip_simulation = !opts.use_double_simulation;
  rig_opts.early_termination = opts.early_termination;
  return rig_opts;
}

// --- Transitive reduction of the query (Section 3).
class ReducePhase : public Phase {
 public:
  PhaseKind kind() const override { return PhaseKind::kReduce; }
  void Run(EvalContext&, PipelineState& s) const override {
    auto t0 = Clock::now();
    s.reduced = s.opts.use_transitive_reduction
                    ? QueryTransitiveReduction(*s.query)
                    : *s.query;
    s.result.reduction_ms = MsSince(t0);
    s.result.reduced_query_edges = s.reduced.NumEdges();
  }
};

// --- Seed candidate sets: label match sets, optionally pre-filtered with
// one forward + one backward sweep [11, 63].
class PrefilterPhase : public Phase {
 public:
  PhaseKind kind() const override { return PhaseKind::kPrefilter; }
  void Run(EvalContext& ctx, PipelineState& s) const override {
    auto t0 = Clock::now();
    s.candidates = s.opts.use_prefilter
                       ? PreFilter(ctx.match_context(), s.reduced, s.opts.sim)
                       : InitialMatchSets(ctx.graph(), s.reduced);
    s.result.prefilter_ms = MsSince(t0);
  }
};

// --- Double simulation refines the seeds into the RIG node sets cos(q)
// (Procedure select of Algorithm 4).
class SimulatePhase : public Phase {
 public:
  PhaseKind kind() const override { return PhaseKind::kSimulate; }
  void Run(EvalContext& ctx, PipelineState& s) const override {
    s.candidates =
        SelectRigNodes(ctx.match_context(), s.reduced, std::move(s.candidates),
                       RigOptionsFrom(s.opts), &s.result.rig_stats);
    s.result.rig_select_ms = s.result.rig_stats.select_ms;
  }
};

// --- Node expansion into RIG edges (Procedure expand of Algorithm 4).
class BuildRigPhase : public Phase {
 public:
  PhaseKind kind() const override { return PhaseKind::kBuildRig; }
  void Run(EvalContext& ctx, PipelineState& s) const override {
    s.rig.emplace(ExpandRig(ctx.match_context(), s.reduced,
                            std::move(s.candidates), RigOptionsFrom(s.opts),
                            ctx.intervals(), &s.result.rig_stats));
    s.candidates.clear();
    s.result.rig_expand_ms = s.result.rig_stats.expand_ms;
    s.result.rig_nodes = s.rig->TotalNodes();
    s.result.rig_edges = s.rig->TotalEdges();
    s.result.rig_memory_bytes = s.rig->MemoryBytes();
    if (s.rig->AnyEmpty()) {
      // Empty RIG: the answer is provably empty; skip ordering + enumeration.
      s.result.empty_rig_shortcut = true;
      s.finished = true;
    }
  }
};

// --- Search-order selection over RIG statistics (Section 5.2).
class OrderPhase : public Phase {
 public:
  PhaseKind kind() const override { return PhaseKind::kOrder; }
  void Run(EvalContext&, PipelineState& s) const override {
    auto t0 = Clock::now();
    s.result.order_used = ComputeSearchOrder(s.reduced, *s.rig, s.opts.order,
                                             &s.result.order_stats);
    s.result.order_ms = MsSince(t0);
  }
};

// --- MJoin enumeration (Algorithm 5).
class EnumeratePhase : public Phase {
 public:
  PhaseKind kind() const override { return PhaseKind::kEnumerate; }
  void Run(EvalContext&, PipelineState& s) const override {
    auto t0 = Clock::now();
    MJoinOptions mopts;
    mopts.limit = s.opts.limit;
    s.result.num_occurrences = MJoin(s.reduced, *s.rig, s.result.order_used,
                                     s.sink, mopts, &s.result.mjoin_stats);
    s.result.enumerate_ms = MsSince(t0);
    s.result.hit_limit = s.result.num_occurrences >= s.opts.limit;
  }
};

}  // namespace

const char* PhaseKindName(PhaseKind kind) {
  switch (kind) {
    case PhaseKind::kReduce:
      return "Reduce";
    case PhaseKind::kPrefilter:
      return "Prefilter";
    case PhaseKind::kSimulate:
      return "Simulate";
    case PhaseKind::kBuildRig:
      return "BuildRig";
    case PhaseKind::kOrder:
      return "Order";
    case PhaseKind::kEnumerate:
      return "Enumerate";
  }
  return "?";
}

std::unique_ptr<Phase> MakePhase(PhaseKind kind) {
  switch (kind) {
    case PhaseKind::kReduce:
      return std::make_unique<ReducePhase>();
    case PhaseKind::kPrefilter:
      return std::make_unique<PrefilterPhase>();
    case PhaseKind::kSimulate:
      return std::make_unique<SimulatePhase>();
    case PhaseKind::kBuildRig:
      return std::make_unique<BuildRigPhase>();
    case PhaseKind::kOrder:
      return std::make_unique<OrderPhase>();
    case PhaseKind::kEnumerate:
      return std::make_unique<EnumeratePhase>();
  }
  return nullptr;
}

void PipelineState::Reset(const PatternQuery& q, const GmOptions& options,
                          OccurrenceSink occurrence_sink) {
  query = &q;
  opts = options;
  sink = std::move(occurrence_sink);
  // Clear the previous evaluation's artifacts.
  candidates.clear();
  rig.reset();
  result = GmResult();
  finished = false;
}

QueryPipeline QueryPipeline::StandardChain() {
  QueryPipeline p;
  p.Append(PhaseKind::kReduce)
      .Append(PhaseKind::kPrefilter)
      .Append(PhaseKind::kSimulate)
      .Append(PhaseKind::kBuildRig)
      .Append(PhaseKind::kOrder)
      .Append(PhaseKind::kEnumerate);
  return p;
}

QueryPipeline QueryPipeline::MatchingChain() {
  QueryPipeline p;
  p.Append(PhaseKind::kReduce)
      .Append(PhaseKind::kPrefilter)
      .Append(PhaseKind::kSimulate)
      .Append(PhaseKind::kBuildRig);
  return p;
}

QueryPipeline& QueryPipeline::Append(std::unique_ptr<Phase> phase) {
  phases_.push_back(std::move(phase));
  return *this;
}

void QueryPipeline::Run(EvalContext& ctx, PipelineState& state) const {
  state.result.phase_timings.reserve(phases_.size());
  for (const std::unique_ptr<Phase>& phase : phases_) {
    if (state.finished) break;
    auto t0 = Clock::now();
    phase->Run(ctx, state);
    state.result.phase_timings.push_back({phase->name(), MsSince(t0)});
  }
}

}  // namespace rigpm
