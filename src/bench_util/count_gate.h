#ifndef RIGPM_BENCH_UTIL_COUNT_GATE_H_
#define RIGPM_BENCH_UTIL_COUNT_GATE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/baseline.h"
#include "baseline/wcoj_engine.h"
#include "engine/gm_engine.h"

namespace rigpm {

/// What an engine's count must be next to GM's homomorphism count on the
/// same query.
enum class CountKind : uint8_t {
  kHomomorphism,  // exactly GM's
  kInjective,     // at most GM's (ISO counts isomorphisms)
};

/// One engine a bench compares: GM in some configuration, or a baseline
/// behind the baselines' contract (baseline/baseline.h).
struct NamedEngine {
  using Evaluate = std::function<BaselineResult(
      const PatternQuery&, const BaselineOptions&, const OccurrenceSink&)>;

  std::string name;
  Evaluate evaluate;
  CountKind kind = CountKind::kHomomorphism;
};

// The engines of the paper's Section 7. Each keeps a reference to what it
// is built over, which must outlive it.

/// GM with `opts`, its limit replaced by the run's, behind the baselines'
/// contract: status kOk, GM's phase timings, and counters rig_nodes and
/// rig_edges. GM has no deadline.
NamedEngine GmVariant(std::string name, const GmEngine& engine,
                      GmOptions opts = {});
NamedEngine Jm(const MatchContext& ctx);
/// The Neo4j stand-in: JM's binary joins without pre-filtering, over
/// `ctx`'s reachability index (the benches pass an index-free BFS one).
NamedEngine Neo4j(const MatchContext& ctx);
NamedEngine Tm(const MatchContext& ctx);
NamedEngine Iso(const Graph& g);  // CountKind::kInjective
/// GF and EH (the GF-style order), or RM with `use_ri_order`.
NamedEngine Wcoj(std::string name, const WcojEngine& engine,
                 bool use_ri_order = false);

/// What one engine did on one query.
struct EngineRun {
  BaselineResult result;
  double ms = 0.0;        // wall clock around the evaluation
  std::string formatted;  // seconds, or the status marker (OM, TO, NA)
};

/// The paper benches' cross-engine count check. Each comparison pits one
/// engine's count on a query against GM's, both run with the same limit
/// and so both capped at it. A comparison fails when
///  - a homomorphism engine that finished returns a count other than GM's,
///  - an injective engine that finished returns more than GM.
/// A run that did not finish (OM, TO, NA) is skipped and counted by status.
class CountGate {
 public:
  /// Records one comparison of an engine's run, which ended with `status`
  /// and `count`, against GM's count; on a mismatch prints it to stderr and
  /// returns false.
  bool Check(std::string_view query, std::string_view engine, CountKind kind,
             EvalStatus status, uint64_t count, uint64_t gm_count,
             uint64_t limit);

  uint64_t comparisons() const { return comparisons_; }
  uint64_t both_at_limit() const { return both_at_limit_; }
  uint64_t skipped(EvalStatus status) const {
    return skipped_[static_cast<int>(status)];
  }
  uint64_t mismatches() const { return mismatches_; }

  /// "count gate: comparisons=N, both_at_limit=N, skipped_om=N,
  /// skipped_to=N, skipped_na=N, mismatches=N" (one line).
  std::string Summary() const;

  /// Prints Summary() to stdout and returns the bench's exit code: 1 after
  /// a mismatch, else 0.
  int Finish() const;

 private:
  uint64_t comparisons_ = 0;
  uint64_t both_at_limit_ = 0;
  uint64_t skipped_[4] = {};  // by EvalStatus; kOk stays 0
  uint64_t mismatches_ = 0;
};

/// The limit and timeout the bench environment sets: MatchLimitFromEnv()
/// and TimeoutMsFromEnv() (harness.h).
BaselineOptions OptionsFromEnv();

/// Runs each engine on `q` with `opts` and no sink, in order, and checks
/// the count of every engine after the first against the first's (GM's)
/// through `gate`. Returns one run per engine, in order.
std::vector<EngineRun> Run(std::span<const NamedEngine> engines,
                           std::string_view query, const PatternQuery& q,
                           CountGate* gate,
                           const BaselineOptions& opts = OptionsFromEnv());

}  // namespace rigpm

#endif  // RIGPM_BENCH_UTIL_COUNT_GATE_H_
