#include "bench_util/count_gate.h"

#include <cstdio>

#include "baseline/iso_engine.h"
#include "baseline/jm_engine.h"
#include "baseline/tm_engine.h"
#include "bench_util/harness.h"

namespace rigpm {

NamedEngine GmVariant(std::string name, const GmEngine& engine,
                      GmOptions opts) {
  auto evaluate = [&engine, opts](const PatternQuery& q,
                                  const BaselineOptions& run,
                                  const OccurrenceSink& sink) {
    GmOptions gm = opts;
    gm.limit = run.limit;
    GmResult r = engine.Evaluate(q, gm, sink);
    BaselineResult result;
    result.num_occurrences = r.num_occurrences;
    result.phase_timings = std::move(r.phase_timings);
    result.counters = {{"rig_nodes", r.rig_nodes}, {"rig_edges", r.rig_edges}};
    return result;
  };
  return {std::move(name), evaluate};
}

NamedEngine Jm(const MatchContext& ctx) {
  auto evaluate = [&ctx](const PatternQuery& q, const BaselineOptions& opts,
                         const OccurrenceSink& sink) {
    return JmEvaluate(ctx, q, opts, sink);
  };
  return {"JM", evaluate};
}

NamedEngine Neo4j(const MatchContext& ctx) {
  auto evaluate = [&ctx](const PatternQuery& q, const BaselineOptions& opts,
                         const OccurrenceSink& sink) {
    return JmEvaluate(ctx, q, opts, sink, /*use_prefilter=*/false);
  };
  return {"Neo4j", evaluate};
}

NamedEngine Tm(const MatchContext& ctx) {
  auto evaluate = [&ctx](const PatternQuery& q, const BaselineOptions& opts,
                         const OccurrenceSink& sink) {
    return TmEvaluate(ctx, q, opts, sink);
  };
  return {"TM", evaluate};
}

NamedEngine Iso(const Graph& g) {
  auto evaluate = [&g](const PatternQuery& q, const BaselineOptions& opts,
                       const OccurrenceSink& sink) {
    return IsoEvaluate(g, q, opts, sink);
  };
  return {"ISO", evaluate, CountKind::kInjective};
}

NamedEngine Wcoj(std::string name, const WcojEngine& engine,
                 bool use_ri_order) {
  auto evaluate = [&engine, use_ri_order](const PatternQuery& q,
                                          const BaselineOptions& opts,
                                          const OccurrenceSink& sink) {
    return engine.Evaluate(q, opts, sink, use_ri_order);
  };
  return {std::move(name), evaluate};
}

bool CountGate::Check(std::string_view query, std::string_view engine,
                      CountKind kind, EvalStatus status, uint64_t count,
                      uint64_t gm_count, uint64_t limit) {
  if (status != EvalStatus::kOk) {
    ++skipped_[static_cast<int>(status)];
    return true;
  }
  ++comparisons_;
  if (count == limit && gm_count == limit) ++both_at_limit_;
  const bool agrees = kind == CountKind::kHomomorphism ? count == gm_count
                                                       : count <= gm_count;
  if (agrees) return true;
  ++mismatches_;
  std::fprintf(stderr,
               "count gate: MISMATCH query=%.*s engine=%.*s count=%llu "
               "gm=%llu limit=%llu\n",
               static_cast<int>(query.size()), query.data(),
               static_cast<int>(engine.size()), engine.data(),
               static_cast<unsigned long long>(count),
               static_cast<unsigned long long>(gm_count),
               static_cast<unsigned long long>(limit));
  return false;
}

std::string CountGate::Summary() const {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "count gate: comparisons=%llu, both_at_limit=%llu, skipped_om=%llu, "
      "skipped_to=%llu, skipped_na=%llu, mismatches=%llu",
      static_cast<unsigned long long>(comparisons_),
      static_cast<unsigned long long>(both_at_limit_),
      static_cast<unsigned long long>(skipped(EvalStatus::kOutOfMemory)),
      static_cast<unsigned long long>(skipped(EvalStatus::kTimeout)),
      static_cast<unsigned long long>(skipped(EvalStatus::kUnsupported)),
      static_cast<unsigned long long>(mismatches_));
  return buf;
}

int CountGate::Finish() const {
  std::printf("\n%s\n", Summary().c_str());
  return mismatches_ == 0 ? 0 : 1;
}

BaselineOptions OptionsFromEnv() {
  return {.limit = MatchLimitFromEnv(), .timeout_ms = TimeoutMsFromEnv()};
}

std::vector<EngineRun> Run(std::span<const NamedEngine> engines,
                           std::string_view query, const PatternQuery& q,
                           CountGate* gate, const BaselineOptions& opts) {
  std::vector<EngineRun> runs;
  for (const NamedEngine& engine : engines) {
    EngineRun run;
    run.ms = TimeMs([&] { run.result = engine.evaluate(q, opts, nullptr); });
    run.formatted = run.result.status == EvalStatus::kOk
                        ? FormatSeconds(run.ms)
                        : EvalStatusName(run.result.status);
    if (!runs.empty()) {
      gate->Check(query, engine.name, engine.kind, run.result.status,
                  run.result.num_occurrences,
                  runs.front().result.num_occurrences, opts.limit);
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

}  // namespace rigpm
