#ifndef RIGPM_ENGINE_PIPELINE_H_
#define RIGPM_ENGINE_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "engine/gm_options.h"
#include "enumerate/mjoin.h"
#include "query/pattern_query.h"
#include "rig/rig.h"
#include "sim/match_sets.h"

namespace rigpm {

class EvalContext;

/// The stages of the GM chain (Sections 3-6), in execution order:
///   Reduce    — transitive reduction of the query (Section 3),
///   Prefilter — seed candidate sets: ms(q) or the Chen/Zeng pre-filter,
///   Simulate  — double simulation refines the seeds into cos(q),
///   BuildRig  — expand cos(q) into RIG edges (Algorithm 4),
///   Order     — search-order selection over RIG statistics (Section 5.2),
///   Enumerate — MJoin (Section 5).
enum class PhaseKind : uint8_t {
  kReduce,
  kPrefilter,
  kSimulate,
  kBuildRig,
  kOrder,
  kEnumerate,
};

const char* PhaseKindName(PhaseKind kind);

/// Mutable state threaded through the phase chain — everything one query
/// evaluation reads and writes. A PipelineState is owned by an EvalContext
/// and recycled across queries via Reset(), which clears the logical
/// content of the previous evaluation so one state object (rather than a
/// fresh set of locals per call) carries a worker through a whole batch.
struct PipelineState {
  // --- Inputs, set by Reset().
  const PatternQuery* query = nullptr;
  GmOptions opts;
  OccurrenceSink sink;  // may be null (count only)

  // --- Intermediate artifacts, produced phase by phase. The search order
  // lands directly in result.order_used (Order phase), where Enumerate
  // reads it.
  PatternQuery reduced;              // Reduce
  CandidateSets candidates;          // Prefilter, refined by Simulate
  std::optional<Rig> rig;            // BuildRig

  // --- Output.
  GmResult result;

  /// Set by a phase that proved the final answer (empty-RIG shortcut); the
  /// pipeline stops running further phases.
  bool finished = false;

  /// Prepares the state for evaluating `q`, recycling buffers in place.
  void Reset(const PatternQuery& q, const GmOptions& options,
             OccurrenceSink occurrence_sink);
};

/// One stage of the staged query pipeline. Phases are immutable and shared
/// across threads; all mutable state lives in (EvalContext, PipelineState),
/// so one phase chain can serve any number of concurrent workers.
class Phase {
 public:
  virtual ~Phase() = default;

  virtual PhaseKind kind() const = 0;
  const char* name() const { return PhaseKindName(kind()); }

  /// Advances `state` by one stage. Runs on the thread owning `ctx`.
  virtual void Run(EvalContext& ctx, PipelineState& state) const = 0;
};

std::unique_ptr<Phase> MakePhase(PhaseKind kind);

/// An explicit, inspectable chain of phases — the staged executor behind
/// GmEngine. The pipeline owns no evaluation state: Run() drives the given
/// (context, state) pair through the chain, recording per-phase wall-clock
/// into state.result.phase_timings and honoring state.finished shortcuts.
class QueryPipeline {
 public:
  QueryPipeline() = default;

  /// Reduce -> Prefilter -> Simulate -> BuildRig -> Order -> Enumerate.
  static QueryPipeline StandardChain();

  /// Reduce -> Prefilter -> Simulate -> BuildRig; used by BuildRigOnly and
  /// EXPLAIN, which never enumerate.
  static QueryPipeline MatchingChain();

  QueryPipeline& Append(std::unique_ptr<Phase> phase);
  QueryPipeline& Append(PhaseKind kind) { return Append(MakePhase(kind)); }

  std::span<const std::unique_ptr<Phase>> phases() const { return phases_; }

  void Run(EvalContext& ctx, PipelineState& state) const;

 private:
  std::vector<std::unique_ptr<Phase>> phases_;
};

}  // namespace rigpm

#endif  // RIGPM_ENGINE_PIPELINE_H_
